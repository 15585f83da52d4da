package sim

import (
	"math"
	"strings"
	"sync"
	"testing"

	"waggle/internal/geom"
)

// marcher moves one unit along +x every activation.
type marcher struct{}

func (marcher) Step(v View) geom.Point { return v.Points[v.Self].Add(geom.V(1, 0)) }

func injectWorld(t *testing.T, n int) *World {
	t.Helper()
	positions := make([]geom.Point, n)
	robots := make([]*Robot, n)
	for i := range positions {
		positions[i] = geom.Pt(float64(i)*10, 0)
		robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1e9, Behavior: marcher{}}
	}
	w, err := NewWorld(Config{Positions: positions, Robots: robots})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// scriptInjector records the hook call order and applies scripted
// transformations. PerturbView runs concurrently under the parallel
// engine, so mu guards what it records.
type scriptInjector struct {
	mu         sync.Mutex
	log        []string
	filter     func(t int, active []int) []int
	viewShift  geom.Vec
	moveScale  float64
	badDest    bool
	sawPerturb bool
}

func (s *scriptInjector) BeginStep(t int, w *World) { s.log = append(s.log, "begin") }

func (s *scriptInjector) FilterActive(t int, active []int) []int {
	s.log = append(s.log, "filter")
	if s.filter != nil {
		return s.filter(t, active)
	}
	return active
}

func (s *scriptInjector) PerturbView(t, observer int, frame geom.Frame, view View) View {
	s.mu.Lock()
	s.log = append(s.log, "view")
	s.sawPerturb = true
	s.mu.Unlock()
	for j := range view.Points {
		if j != view.Self {
			view.Points[j] = view.Points[j].Add(s.viewShift)
		}
	}
	return view
}

func (s *scriptInjector) PerturbMove(t, robot int, from, dest geom.Point) geom.Point {
	s.log = append(s.log, "move")
	if s.badDest {
		return geom.Pt(math.NaN(), 0)
	}
	if s.moveScale != 0 {
		return from.Add(dest.Sub(from).Scale(s.moveScale))
	}
	return dest
}

func TestInjectorHookOrder(t *testing.T) {
	w := injectWorld(t, 2)
	inj := &scriptInjector{}
	w.SetInjector(inj)
	if w.Injector() != inj {
		t.Fatal("Injector accessor broken")
	}
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(inj.log, " ")
	want := "begin filter view view move move"
	if got != want {
		t.Errorf("hook order %q, want %q", got, want)
	}
}

func TestInjectorCrashStopsEverything(t *testing.T) {
	w := injectWorld(t, 3)
	inj := &scriptInjector{filter: func(tt int, active []int) []int {
		// Crash-stop robot 1 at every instant.
		out := active[:0]
		for _, i := range active {
			if i != 1 {
				out = append(out, i)
			}
		}
		return out
	}}
	w.SetInjector(inj)
	for k := 0; k < 4; k++ {
		active, err := w.Step(Synchronous{})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range active {
			if i == 1 {
				t.Fatal("crashed robot reported active")
			}
		}
	}
	if got := w.Position(1); got != geom.Pt(10, 0) {
		t.Errorf("crashed robot moved to %v", got)
	}
	if got := w.Position(0); got != geom.Pt(4, 0) {
		t.Errorf("healthy robot at %v, want (4,0)", got)
	}
	if w.Time() != 4 {
		t.Errorf("time %d, want 4", w.Time())
	}
}

func TestInjectorEmptyActivationSetAdvancesTime(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{filter: func(int, []int) []int { return nil }})
	active, err := w.Step(Synchronous{})
	if err != nil {
		t.Fatal(err)
	}
	if len(active) != 0 {
		t.Errorf("active = %v, want none", active)
	}
	if w.Time() != 1 {
		t.Errorf("time %d, want 1 (the instant still passes)", w.Time())
	}
	if got := w.Position(0); got != geom.Pt(0, 0) {
		t.Errorf("robot moved with an empty activation set: %v", got)
	}
}

func TestInjectorPerturbMoveApplied(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{moveScale: 0.5})
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if got := w.Position(0); got != geom.Pt(0.5, 0) {
		t.Errorf("truncated move landed at %v, want (0.5,0)", got)
	}
}

func TestInjectorNonFiniteDestinationRejected(t *testing.T) {
	w := injectWorld(t, 2)
	w.SetInjector(&scriptInjector{badDest: true})
	if _, err := w.Step(Synchronous{}); err == nil {
		t.Error("non-finite injected destination accepted")
	}
}

func TestInjectorDetach(t *testing.T) {
	w := injectWorld(t, 2)
	inj := &scriptInjector{}
	w.SetInjector(inj)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	w.SetInjector(nil)
	n := len(inj.log)
	if _, err := w.Step(Synchronous{}); err != nil {
		t.Fatal(err)
	}
	if len(inj.log) != n {
		t.Error("detached injector still invoked")
	}
}

// TestInjectorViewPerturbationReachesBehavior verifies the perturbed
// view is what the behavior actually observes, under both engines.
func TestInjectorViewPerturbationReachesBehavior(t *testing.T) {
	for _, mode := range []EngineMode{EngineSequential, EngineParallel} {
		positions := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
		seen := make([]geom.Point, 2)
		robots := make([]*Robot, 2)
		for i := range robots {
			i := i
			robots[i] = &Robot{Frame: geom.WorldFrame(), Sigma: 1e9, Behavior: behaviorFunc(func(v View) geom.Point {
				seen[i] = v.Points[1-v.Self]
				return v.Points[v.Self]
			})}
		}
		w, err := NewWorld(Config{Positions: positions, Robots: robots, Engine: mode})
		if err != nil {
			t.Fatal(err)
		}
		w.SetInjector(&scriptInjector{viewShift: geom.V(0, 5)})
		if _, err := w.Step(Synchronous{}); err != nil {
			t.Fatal(err)
		}
		// Views are egocentric: each robot observes the other relative to
		// its own position, plus the injected (0,5) shift.
		if seen[0] != geom.Pt(10, 5) || seen[1] != geom.Pt(-10, 5) {
			t.Errorf("engine %v: behaviors saw %v, want shifted views", mode, seen)
		}
	}
}

type behaviorFunc func(View) geom.Point

func (f behaviorFunc) Step(v View) geom.Point { return f(v) }
