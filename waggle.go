// Package waggle implements explicit communication for deaf and dumb
// mobile robots by movement signals, after Dieudonné, Dolev, Petit and
// Segal, "Deaf, Dumb, and Chatting Robots: Enabling Distributed
// Computation and Fault-Tolerance Among Stigmergic Robots" (PODC 2009
// brief announcement / INRIA research report inria-00363081).
//
// The robots live in the plane, observe each other's instantaneous
// positions, and have no communication device of any kind; the library
// lets them exchange arbitrary byte messages purely by moving —
// analogously to bee waggle dances. It implements all six protocols of
// the paper (two-robot and n-robot, synchronous and asynchronous, with
// observable IDs, lexicographic naming, or SEC-relative naming) plus the
// §5 extensions (amplitude-level coding, bounded-slice index preludes,
// flocking compensation, wireless-backup fault tolerance).
//
// Quickstart:
//
//	swarm, err := waggle.NewSwarm(
//		[]waggle.Point{{0, 0}, {10, 0}},
//		waggle.WithSynchronous(),
//	)
//	...
//	swarm.Send(0, 1, []byte("HELLO"))
//	msgs, steps, err := swarm.RunUntilDelivered(1, 100_000)
package waggle

import (
	"errors"
	"fmt"
	"hash"
	"io"

	"waggle/internal/ckpt"
	"waggle/internal/core"
	"waggle/internal/fault"
	"waggle/internal/geom"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// Point is a position in the plane (world coordinates).
type Point struct {
	X, Y float64
}

// Message is one delivered message. From and To are robot indices in the
// initial configuration.
type Message struct {
	From, To int
	Payload  []byte
}

// Protocol identifies which of the paper's protocols a swarm runs.
type Protocol int

// Protocols selectable with WithProtocol; ProtoAuto picks from the swarm
// size and capability options.
const (
	ProtoAuto Protocol = iota
	// ProtoSync2 is §3.1: two synchronous robots.
	ProtoSync2
	// ProtoSyncN is §3.2-§3.4: n synchronous robots.
	ProtoSyncN
	// ProtoAsync2 is §4.1: two asynchronous robots.
	ProtoAsync2
	// ProtoAsyncN is §4.2: n asynchronous robots.
	ProtoAsyncN
	// ProtoAsyncBounded is the §5 bounded-slice variant of ProtoAsyncN.
	ProtoAsyncBounded
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoAuto:
		return "auto"
	case ProtoSync2:
		return "sync2"
	case ProtoSyncN:
		return "syncn"
	case ProtoAsync2:
		return "async2"
	case ProtoAsyncN:
		return "asyncn"
	case ProtoAsyncBounded:
		return "asyncbounded"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Swarm is a set of deaf and dumb robots wired for movement-signal
// communication.
type Swarm struct {
	net      *core.Network
	opts     options
	n        int
	protocol Protocol

	// initial holds the construction positions and rec the ordered log
	// of state-mutating API calls — together with opts they are the
	// checkpoint's replayable image of this swarm (see Checkpoint).
	initial []Point
	rec     *ckpt.Recorder
	// radio and messenger are the coupled fault-channel facades, if
	// any; Checkpoint captures their state alongside the swarm's.
	radio     *Radio
	messenger *BackupMessenger
	// stream is the attached movement-stream writer, if any. Not part
	// of the checkpointed identity (see StreamWriter).
	stream *StreamWriter
	// traceHash is the running SHA-256 of the trace CSV and traceNext
	// the sim.Trace record cursor it has consumed up to (see
	// traceDigest). Both stay zero until a digest is first requested.
	traceHash hash.Hash
	traceNext int
}

// ErrTooFewRobots is returned for swarms of fewer than two robots.
var ErrTooFewRobots = errors.New("waggle: a swarm needs at least two robots")

// ErrNotDelivered is returned by RunUntil* calls whose step budget ran
// out before the condition held.
var ErrNotDelivered = core.ErrNotDelivered

// ErrInvalidBudget is returned by RunUntil* calls passed a negative
// step or delivery budget (zero is legal: "check without stepping").
var ErrInvalidBudget = core.ErrInvalidBudget

// ErrCorruptCursor is returned when the delivery consumption cursor is
// inconsistent with the delivered log — reachable only through a
// corrupted checkpoint restore.
var ErrCorruptCursor = core.ErrCorruptCursor

// NewSwarm places the robots at the given positions and wires the
// protocol selected by the options (asynchronous, anonymous, SEC naming,
// chirality only — the paper's weakest assumptions — unless options say
// otherwise). Each robot receives a private coordinate frame: random
// rotation (aligned instead when sense of direction is enabled), random
// scale, shared handedness.
func NewSwarm(positions []Point, opts ...Option) (*Swarm, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt.apply(&o)
	}
	var s *Swarm
	var err error
	if o.restore != nil {
		s, err = newSwarmRestored(positions, o)
	} else {
		s, err = newSwarm(positions, o)
	}
	if err != nil {
		return nil, err
	}
	if o.streamPath != "" {
		// Attached only after construction (and any restore replay)
		// completes, so replayed history is never re-streamed.
		if _, err := s.NewStreamWriter(o.streamPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSwarm builds a swarm from resolved options — the shared path of
// NewSwarm and checkpoint restore (which rebuilds the options from the
// checkpointed config).
func newSwarm(positions []Point, o options) (*Swarm, error) {
	if len(positions) < 2 {
		return nil, ErrTooFewRobots
	}
	if err := validateOptions(o, len(positions)); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, len(positions))
	for i, p := range positions {
		pts[i] = geom.Pt(p.X, p.Y)
	}
	proto := pickProtocol(o, len(pts))

	frames := buildFrames(o, len(pts))
	// Protocol behaviors reason in their own frame units; give each its
	// movement bound converted accordingly so no commanded move is ever
	// clamped (which would silently corrupt dead reckoning).
	sigmaLocal := make([]float64, len(pts))
	for i, f := range frames {
		sigmaLocal[i] = o.sigma / f.Scale
	}
	behaviors, endpoints, err := buildProtocol(proto, o, pts, sigmaLocal)
	if err != nil {
		return nil, err
	}
	robots := make([]*sim.Robot, len(pts))
	for i := range robots {
		behavior := behaviors[i]
		if o.flock != nil {
			behavior = &protocol.Flocked{
				Inner: behavior,
				Drift: frames[i].VecToLocal(geom.V(o.flock.X, o.flock.Y)),
			}
		}
		robots[i] = &sim.Robot{
			Frame:    frames[i],
			Sigma:    o.sigma,
			Behavior: behavior,
		}
	}
	world, err := sim.NewWorld(sim.Config{
		Positions:   pts,
		Robots:      robots,
		Identified:  o.identified,
		RecordTrace: o.trace,
		Engine:      buildEngine(o),
	})
	if err != nil {
		return nil, fmt.Errorf("waggle: %w", err)
	}
	if o.observer != nil {
		world.SetObserver(o.observer.inner)
		if o.faultRadio != nil {
			o.faultRadio.inner.SetObserver(o.observer.inner)
		}
	}
	if o.faultPlan != nil {
		plan, err := buildFaultPlan(*o.faultPlan, len(pts))
		if err != nil {
			return nil, err
		}
		inj, err := fault.NewInjector(plan, len(pts), o.seed)
		if err != nil {
			return nil, fmt.Errorf("waggle: %w", err)
		}
		var rc fault.RadioControl
		if o.faultRadio != nil {
			rc = o.faultRadio.inner
		}
		if err := inj.AttachRadio(rc); err != nil {
			return nil, fmt.Errorf("waggle: %w (pass the radio with WithFaultRadio)", err)
		}
		if o.observer != nil {
			inj.SetObserver(o.observer.inner)
		}
		world.SetInjector(inj)
	}
	net, err := core.NewNetwork(world, buildScheduler(o), endpoints)
	if err != nil {
		return nil, fmt.Errorf("waggle: %w", err)
	}
	if o.observer != nil {
		net.SetObserver(o.observer.inner)
	}
	s := &Swarm{
		net:      net,
		opts:     o,
		n:        len(pts),
		protocol: proto,
		initial:  append([]Point(nil), positions...),
		rec:      ckpt.NewRecorder(),
	}
	if o.faultRadio != nil {
		s.radio = o.faultRadio
		s.radio.attachRecorder(s.rec)
	}
	return s, nil
}

// N returns the number of robots.
func (s *Swarm) N() int { return s.n }

// Protocol returns the protocol the swarm runs.
func (s *Swarm) Protocol() Protocol { return s.protocol }

// record appends one input to the swarm's replay log. Every
// state-mutating public API call records itself on success (and on the
// in-band failures that still mutate state, like a budget-exhausted
// run), so a checkpoint can replay the exact call sequence.
func (s *Swarm) record(in ckpt.Input) {
	in.T = s.net.World().Time()
	s.rec.Record(in)
}

// Send queues a message from robot `from` to robot `to`.
func (s *Swarm) Send(from, to int, payload []byte) error {
	err := s.net.Send(from, to, payload)
	if err == nil {
		s.record(ckpt.Input{Op: ckpt.OpSend, From: from, To: to, Payload: payload})
	}
	return err
}

// Broadcast queues a message from robot `from` to every other robot as
// n-1 separate unicasts (recipient-specific framing).
func (s *Swarm) Broadcast(from int, payload []byte) error {
	err := s.net.Broadcast(from, payload)
	if err == nil {
		s.record(ckpt.Input{Op: ckpt.OpBroadcast, From: from, Payload: payload})
	}
	return err
}

// SendAll transmits one message from robot `from` to every other robot
// in a single transmission on the sender's own diameter — the paper's
// efficient one-to-all (§1). Cost: one frame instead of n-1.
func (s *Swarm) SendAll(from int, payload []byte) error {
	err := s.net.SendAll(from, payload)
	if err == nil {
		s.record(ckpt.Input{Op: ckpt.OpSendAll, From: from, Payload: payload})
	}
	return err
}

// Step advances the swarm by one time instant.
func (s *Swarm) Step() error {
	err := s.net.Step()
	if err == nil {
		s.record(ckpt.Input{Op: ckpt.OpStep})
	}
	return err
}

// RunUntilDelivered advances the swarm until `count` undelivered-to-you
// messages are available (or the step budget is exhausted), returning
// them — oldest first, including any that arrived during an earlier run
// but were never returned — and the number of instants executed. A zero
// maxSteps checks without stepping; negative budgets fail with
// ErrInvalidBudget.
func (s *Swarm) RunUntilDelivered(count, maxSteps int) ([]Message, int, error) {
	t := s.net.World().Time()
	recs, steps, err := s.net.RunUntilDelivered(count, maxSteps)
	if err == nil || errors.Is(err, ErrNotDelivered) {
		// A budget-exhausted run still stepped the world; replay must
		// repeat it. Pure validation failures mutated nothing.
		s.rec.Record(ckpt.Input{T: t, Op: ckpt.OpRunDelivered, Count: count, Max: maxSteps})
	}
	return toMessages(recs), steps, err
}

// RunUntilQuiet advances the swarm until every robot has nothing queued
// or in flight, returning every message not yet handed out by a
// previous RunUntil* call plus those delivered during the run. A zero
// maxSteps checks without stepping; negative budgets fail with
// ErrInvalidBudget.
func (s *Swarm) RunUntilQuiet(maxSteps int) ([]Message, int, error) {
	t := s.net.World().Time()
	recs, steps, err := s.net.RunUntilQuiet(maxSteps)
	if err == nil || errors.Is(err, ErrNotDelivered) {
		s.rec.Record(ckpt.Input{T: t, Op: ckpt.OpRunQuiet, Max: maxSteps})
	}
	return toMessages(recs), steps, err
}

// Delivered returns every message delivered so far.
func (s *Swarm) Delivered() []Message { return toMessages(s.net.Delivered()) }

// Overheard drains robot i's log of messages it decoded but that were
// addressed to others — every robot can reconstruct all traffic (§3.4).
func (s *Swarm) Overheard(i int) []Message {
	return toMessages(s.net.Endpoint(i).Overheard())
}

// SentBits returns how many movement excursions robot i has performed
// for transmission.
func (s *Swarm) SentBits(i int) int { return s.net.Endpoint(i).SentBits() }

// Time returns the current instant.
func (s *Swarm) Time() int { return s.net.World().Time() }

// Positions returns the robots' current positions.
func (s *Swarm) Positions() []Point {
	pts := s.net.World().Positions()
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Point{X: p.X, Y: p.Y}
	}
	return out
}

// TotalDistance returns the total distance robot i has covered, when the
// swarm was built WithTrace; it returns 0 otherwise.
func (s *Swarm) TotalDistance(i int) float64 {
	tr := s.net.World().Trace()
	if tr == nil {
		return 0
	}
	return tr.TotalDistance(i)
}

// WriteTraceCSV streams the recorded execution as CSV
// (time,robot,x,y), for external plotting. Requires WithTrace.
func (s *Swarm) WriteTraceCSV(w io.Writer) error {
	tr := s.net.World().Trace()
	if tr == nil {
		return errors.New("waggle: tracing disabled; build the swarm WithTrace()")
	}
	return tr.WriteCSV(w)
}

// MinPairwiseDistance returns the minimum distance any two robots ever
// reached (WithTrace required; 0 otherwise) — the collision-avoidance
// metric.
func (s *Swarm) MinPairwiseDistance() float64 {
	tr := s.net.World().Trace()
	if tr == nil {
		return 0
	}
	return tr.MinPairwiseDistance()
}

// network exposes the internal network to sibling helpers (radio
// backup).
func (s *Swarm) network() *core.Network { return s.net }

func toMessages(recs []protocol.Received) []Message {
	out := make([]Message, len(recs))
	for i, r := range recs {
		out[i] = Message{From: r.From, To: r.To, Payload: r.Payload}
	}
	return out
}

// validateOptions rejects option combinations that would be silently
// unsound rather than letting them degrade.
func validateOptions(o options, n int) error {
	if o.flock != nil && !o.synchronous {
		// Flocking superimposes an agreed per-activation drift; under
		// partial activation the robots' accumulated drifts diverge and
		// relative geometry — the communication medium — is destroyed.
		return errors.New("waggle: WithFlocking requires WithSynchronous (§5's flocking remark assumes lockstep drift)")
	}
	if o.levels != 0 {
		if !o.synchronous {
			return errors.New("waggle: WithLevels applies to the synchronous protocols (§3.1 and its n-robot composition)")
		}
		if o.protocol != ProtoAuto && o.protocol != ProtoSync2 && o.protocol != ProtoSyncN {
			return fmt.Errorf("waggle: WithLevels conflicts with WithProtocol(%v)", o.protocol)
		}
	}
	if o.boundedSlices != 0 {
		if o.boundedSlices < 2 {
			return fmt.Errorf("waggle: bounded-slice base %d must be at least 2", o.boundedSlices)
		}
		if o.synchronous {
			return errors.New("waggle: WithBoundedSlices selects the asynchronous §5 protocol; drop WithSynchronous")
		}
		if o.protocol != ProtoAuto && o.protocol != ProtoAsyncBounded {
			return fmt.Errorf("waggle: WithBoundedSlices conflicts with WithProtocol(%v)", o.protocol)
		}
	}
	if o.alternateDrift && (n != 2 || o.synchronous) {
		return errors.New("waggle: WithAlternatingDrift applies only to the two-robot asynchronous protocol (§4.1)")
	}
	if o.scheduler == SchedulerStarver && (o.starveVictim < 0 || o.starveVictim >= n) {
		return fmt.Errorf("waggle: starver victim %d out of range [0,%d)", o.starveVictim, n)
	}
	if o.sigma <= 0 {
		return fmt.Errorf("waggle: sigma %v must be positive", o.sigma)
	}
	if o.stabilizeEpoch != 0 {
		if o.stabilizeEpoch < 0 {
			return fmt.Errorf("waggle: stabilization epoch %d must be positive", o.stabilizeEpoch)
		}
		if !o.synchronous {
			return errors.New("waggle: WithStabilization requires WithSynchronous (§5's sketch assumes a global clock)")
		}
		if o.protocol != ProtoAuto && o.protocol != ProtoSyncN {
			return fmt.Errorf("waggle: WithStabilization conflicts with WithProtocol(%v)", o.protocol)
		}
		if o.levels != 0 {
			return errors.New("waggle: WithStabilization does not compose with WithLevels")
		}
	}
	if o.engine < EngineAuto || o.engine > EngineParallel {
		return fmt.Errorf("waggle: unknown engine mode %d", o.engine)
	}
	return nil
}

func pickProtocol(o options, n int) Protocol {
	if o.protocol != ProtoAuto {
		return o.protocol
	}
	if o.boundedSlices > 0 {
		return ProtoAsyncBounded
	}
	if o.stabilizeEpoch > 0 {
		// Stabilization is built on the n-robot synchronous protocol,
		// even for two robots.
		return ProtoSyncN
	}
	switch {
	case n == 2 && o.synchronous:
		return ProtoSync2
	case n == 2:
		return ProtoAsync2
	case o.synchronous:
		return ProtoSyncN
	default:
		return ProtoAsyncN
	}
}

func naming(o options) protocol.Naming {
	switch {
	case o.identified:
		return protocol.NamingIDs
	case o.senseOfDirection:
		return protocol.NamingLex
	default:
		return protocol.NamingSEC
	}
}

func buildProtocol(proto Protocol, o options, pts []geom.Point, sigmaLocal []float64) ([]sim.Behavior, []*protocol.Endpoint, error) {
	n := len(pts)
	switch proto {
	case ProtoSync2:
		if n != 2 {
			return nil, nil, fmt.Errorf("waggle: %v needs exactly 2 robots, got %d", proto, n)
		}
		return protocol.NewSync2(protocol.Sync2Config{
			Levels:     o.levels,
			SigmaLocal: [2]float64{sigmaLocal[0], sigmaLocal[1]},
		})
	case ProtoAsync2:
		if n != 2 {
			return nil, nil, fmt.Errorf("waggle: %v needs exactly 2 robots, got %d", proto, n)
		}
		drift := protocol.DriftAway
		if o.alternateDrift {
			drift = protocol.DriftAlternate
		}
		return protocol.NewAsync2(protocol.Async2Config{
			Drift:      drift,
			SigmaLocal: [2]float64{sigmaLocal[0], sigmaLocal[1]},
		})
	case ProtoSyncN:
		cfg := protocol.SyncNConfig{
			Naming:     naming(o),
			Levels:     o.levels,
			SigmaLocal: sigmaLocal,
		}
		if o.stabilizeEpoch > 0 {
			return protocol.NewStabilizingSyncN(n, o.stabilizeEpoch, cfg)
		}
		return protocol.NewSyncN(n, cfg)
	case ProtoAsyncN:
		return protocol.NewAsyncN(n, protocol.AsyncNConfig{Naming: naming(o), SigmaLocal: sigmaLocal})
	case ProtoAsyncBounded:
		k := o.boundedSlices
		if k == 0 {
			k = 2
		}
		return protocol.NewAsyncBounded(n, k, protocol.AsyncNConfig{Naming: naming(o), SigmaLocal: sigmaLocal})
	default:
		return nil, nil, fmt.Errorf("waggle: unknown protocol %v", proto)
	}
}
