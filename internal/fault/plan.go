// Package fault is the deterministic fault-injection subsystem: a
// declarative, time-ordered Plan of fault events compiled into an
// Injector that drives the simulator's injection hooks (sim.Injector)
// and, optionally, a coupled radio (RadioControl).
//
// The paper's headline application is fault-tolerance — movement
// signalling as "a communication backup" when wireless devices break or
// are jammed (§1) — and the related work motivates two further fault
// families: asynchronous delivery under adversarial activation
// (RoboCast, arXiv:1006.5877) and inaccurate/truncated motion
// (arXiv:2010.09667). The Plan vocabulary covers both sides:
//
//   - Crash / crash-recover: a robot stops being activated for a window
//     (or forever), the classic crash-stop model.
//   - Displace: a transient world-position fault (a gust of wind, an
//     operator picking the robot up) applied via World.Teleport.
//   - ObserveNoise: per-sighting Gaussian sensor noise in world units.
//   - DropSight: each sighting of another robot is lost with a fixed
//     probability (the observer perceives nothing there).
//   - MoveError: every applied move is scaled by a factor drawn from
//     [Min, Max] — truncation below 1, overshoot above it.
//   - RadioOutage: a robot's (or everyone's) wireless transmitter is
//     broken for a window and repaired afterwards.
//   - JamRamp: the environment jamming probability ramps linearly from
//     Min to Max across the window and resets to zero afterwards.
//
// Every random choice is keyed by a splitmix64 hash of (seed, time,
// robot, target, event), never by shared stream state, so a plan run
// twice with the same seed produces byte-identical executions — under
// the sequential and the parallel step engine alike.
package fault

import (
	"fmt"
	"math"

	"waggle/internal/geom"
)

// Kind enumerates the fault families a Plan can schedule.
type Kind int

// Fault kinds. The zero value is invalid so that a forgotten Kind in an
// Event literal fails validation instead of silently becoming a crash.
const (
	// Crash stops the robot being activated during [At, Until); Until 0
	// means it never recovers (crash-stop without recovery).
	Crash Kind = iota + 1
	// Displace teleports the robot by Delta (world units) at instant At.
	Displace
	// ObserveNoise adds Gaussian noise with standard deviation Mag
	// (world units) to every sighting made by the affected observers
	// during [At, Until).
	ObserveNoise
	// DropSight makes every sighting by the affected observers vanish
	// with probability Mag during [At, Until).
	DropSight
	// MoveError scales every move applied to the affected robots by a
	// factor drawn uniformly from [Min, Max] during [At, Until).
	MoveError
	// RadioOutage breaks the affected robots' transmitters during
	// [At, Until) and repairs them at Until. Requires an attached radio.
	RadioOutage
	// JamRamp ramps the radio jamming probability linearly from Min (at
	// At) to Max (at Until-1) during the window, restoring 0 at Until.
	// Requires an attached radio.
	JamRamp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Displace:
		return "displace"
	case ObserveNoise:
		return "observe-noise"
	case DropSight:
		return "drop-sight"
	case MoveError:
		return "move-error"
	case RadioOutage:
		return "radio-outage"
	case JamRamp:
		return "jam-ramp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault family.
	Kind Kind
	// At is the first instant the fault is in effect.
	At int
	// Until is the end of the fault window, exclusive. Windowed kinds
	// (everything except Displace) require Until > At, with the single
	// exception of a Crash with Until 0: that robot never recovers.
	Until int
	// Robot is the affected robot, or AllRobots.
	Robot int
	// Mag is the kind-specific magnitude: noise standard deviation in
	// world units (ObserveNoise) or drop probability (DropSight).
	Mag float64
	// Min and Max bound the move scale factor (MoveError) or the
	// jamming probability ramp (JamRamp).
	Min, Max float64
	// Delta is the world-space displacement (Displace).
	Delta geom.Vec
}

// AllRobots targets every robot in the system.
const AllRobots = -1

// active reports whether the event is in effect at instant t.
func (e Event) active(t int) bool {
	if t < e.At {
		return false
	}
	if e.Kind == Crash && e.Until == 0 {
		return true
	}
	return t < e.Until
}

// hits reports whether the event targets robot i.
func (e Event) hits(i int) bool { return e.Robot == AllRobots || e.Robot == i }

// Plan is a declarative, time-ordered schedule of fault events. The
// zero value is the empty (fault-free) plan.
type Plan struct {
	Events []Event
}

// Validate checks the plan against a system of n robots. It is called
// by NewInjector; exported so harnesses can fail fast on construction.
func (p Plan) Validate(n int) error {
	for idx, e := range p.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("fault: event %d (%v): %s", idx, e.Kind, fmt.Sprintf(format, args...))
		}
		if e.Kind < Crash || e.Kind > JamRamp {
			return fmt.Errorf("fault: event %d has unknown kind %d", idx, int(e.Kind))
		}
		if e.Robot != AllRobots && (e.Robot < 0 || e.Robot >= n) {
			return fail("robot %d out of range [0,%d)", e.Robot, n)
		}
		if e.At < 0 {
			return fail("start instant %d negative", e.At)
		}
		windowed := e.Kind != Displace && !(e.Kind == Crash && e.Until == 0)
		if windowed && e.Until <= e.At {
			return fail("window [%d,%d) empty", e.At, e.Until)
		}
		switch e.Kind {
		case ObserveNoise:
			if math.IsNaN(e.Mag) || e.Mag < 0 || math.IsInf(e.Mag, 0) {
				return fail("noise stddev %v must be finite and non-negative", e.Mag)
			}
		case DropSight:
			if math.IsNaN(e.Mag) || e.Mag < 0 || e.Mag > 1 {
				return fail("drop probability %v outside [0,1]", e.Mag)
			}
		case MoveError:
			if math.IsNaN(e.Min) || math.IsNaN(e.Max) || e.Min < 0 || e.Max < e.Min || math.IsInf(e.Max, 0) {
				return fail("move factor range [%v,%v] invalid", e.Min, e.Max)
			}
		case JamRamp:
			for _, v := range []float64{e.Min, e.Max} {
				if math.IsNaN(v) || v < 0 || v > 1 {
					return fail("jam probability %v outside [0,1]", v)
				}
			}
		case Displace:
			if math.IsNaN(e.Delta.X) || math.IsNaN(e.Delta.Y) ||
				math.IsInf(e.Delta.X, 0) || math.IsInf(e.Delta.Y, 0) {
				return fail("displacement %v not finite", e.Delta)
			}
		}
	}
	return nil
}

// NeedsRadio reports whether the plan contains radio events, which
// require an attached RadioControl.
func (p Plan) NeedsRadio() bool {
	for _, e := range p.Events {
		if e.Kind == RadioOutage || e.Kind == JamRamp {
			return true
		}
	}
	return false
}
