package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// exactClassify is slicer.classify without its fast path: the atan2
// expression, the reference angle recomputed per call and the wrap
// through math.Mod. It is the oracle classify's fast path must agree with.
func exactClassify(s slicer, d geom.Vec) (int, sideOf) {
	alpha := math.Mod(s.ref.Angle()-d.Angle(), 2*math.Pi)
	if alpha < 0 {
		alpha += 2 * math.Pi
	}
	halfStep := math.Pi / float64(s.diameters)
	m := int(math.Round(alpha/halfStep)) % (2 * s.diameters)
	if m < 0 {
		m += 2 * s.diameters
	}
	side := sideOf(0)
	if m >= s.diameters {
		side = 1
	}
	return m % s.diameters, side
}

// decided reports whether classify's fast path decides d by itself.
func decided(s slicer, d geom.Vec) bool {
	_, ok := s.halves.round(s.ref.Y*d.X-s.ref.X*d.Y, s.ref.X*d.X+s.ref.Y*d.Y)
	return ok
}

// checkClassify fails t when classify(d) and the oracle disagree.
func checkClassify(t *testing.T, s slicer, d geom.Vec, what string) {
	t.Helper()
	k, side := s.classify(d)
	wk, wside := exactClassify(s, d)
	if k != wk || side != wside {
		t.Fatalf("%s: diameters=%d ref=%v d=%v: classify = (%d,%d), exact = (%d,%d)",
			what, s.diameters, s.ref, d, k, side, wk, wside)
	}
}

func TestAtanUnitErrorBound(t *testing.T) {
	const steps = 1_000_000
	worst := 0.0
	for i := 0; i <= steps; i++ {
		z := float64(i) / steps
		if e := math.Abs(atanUnit(z) - math.Atan(z)); e > worst {
			worst = e
		}
	}
	// A&S 4.4.49 states 2e-8; angleGuard assumes it with a 5x margin.
	if worst > 2e-8 || 5*worst > angleGuard {
		t.Fatalf("atanUnit max error %g exceeds the stated 2e-8 bound", worst)
	}
}

// TestClassifyFastPathMatchesExact compares classify with the atan2
// oracle for every diameter count 2..65: random displacements of
// widely spread lengths, the sender directions themselves, and
// displacements placed within 1e-12 rad (and at the guard's edge) of
// every sector boundary.
func TestClassifyFastPathMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fast, total := 0, 0
	for diameters := 2; diameters <= 65; diameters++ {
		refs := []geom.Vec{geom.V(0, 1), geom.V(1, 0), geom.V(-3, -4)}
		for i := 0; i < 4; i++ {
			refs = append(refs, geom.V(1, 0).Rotate(rng.Float64()*2*math.Pi).Scale(0.1+10*rng.Float64()))
		}
		for _, ref := range refs {
			s := newSlicer(ref, diameters)
			for i := 0; i < 200; i++ {
				d := geom.V(rng.NormFloat64(), rng.NormFloat64()).Scale(math.Pow(10, 12*rng.Float64()-6))
				checkClassify(t, s, d, "random")
				if decided(s, d) {
					fast++
				}
				total++
			}
			for k := 0; k < diameters; k++ {
				for side := sideOf(0); side <= 1; side++ {
					d := s.direction(k, side).Scale(0.05 + rng.Float64())
					if !decided(s, d) {
						t.Fatalf("diameters=%d: sender direction (%d,%d) missed the fast path", diameters, k, side)
					}
					checkClassify(t, s, d, "sender direction")
				}
			}
			halfStep := math.Pi / float64(diameters)
			for b := 0; b < 2*diameters; b++ {
				boundary := (float64(b) + 0.5) * halfStep
				for _, off := range []float64{0, 1e-15, 1e-13, 1e-12, 1e-9, 0.9 * angleGuard, angleGuard, 1.1 * angleGuard, 1e-6} {
					for _, delta := range []float64{-off, off} {
						d := s.ref.Rotate(-(boundary + delta)).Scale(0.01 + 100*rng.Float64())
						checkClassify(t, s, d, fmt.Sprintf("boundary %d%+g", b, delta))
						if math.Abs(delta) <= 1e-12 {
							if decided(s, d) {
								t.Fatalf("diameters=%d: fast path decided %g rad from boundary %d", diameters, delta, b)
							}
						}
					}
				}
			}
		}
	}
	// The fast path must carry the load, not only defer to atan2.
	if fast < total*999/1000 {
		t.Fatalf("fast path decided %d of %d random displacements", fast, total)
	}
}

func TestClassifyFastPathDegenerateInputs(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tiny := math.SmallestNonzeroFloat64
	inputs := []geom.Vec{
		{}, geom.V(0, -0.0), geom.V(-1, 0), geom.V(-1, -0.0), geom.V(tiny, 0), geom.V(tiny, -tiny),
		geom.V(1e-300, 1e-301), geom.V(1e300, -1e300), geom.V(math.MaxFloat64, math.MaxFloat64),
		geom.V(inf, 1), geom.V(1, -inf), geom.V(inf, inf), geom.V(nan, 1), geom.V(1, nan),
	}
	for diameters := 1; diameters <= 65; diameters++ {
		s := newSlicer(geom.V(0.3, -0.7), diameters)
		for _, d := range inputs {
			checkClassify(t, s, d, "degenerate")
		}
	}
}

// FuzzClassifyFastPath compares classify with the atan2 oracle on
// fuzzed reference directions, displacements and diameter counts.
func FuzzClassifyFastPath(f *testing.F) {
	f.Add(0.0, 1.0, 1.0, 0.0, 9)
	f.Add(1.0, 1.0, -1e-12, 3.0, 65)
	f.Add(-0.5, 2.0, math.Inf(1), 1.0, 2)
	f.Add(3.0, -4.0, 5e-324, 0.0, 1024)
	f.Fuzz(func(t *testing.T, rx, ry, dx, dy float64, diameters int) {
		ref := geom.V(rx, ry)
		if l := ref.Len(); !(l > geom.Eps) || math.IsInf(l, 0) {
			t.Skip("reference must be finite and non-zero")
		}
		if diameters < 0 {
			diameters = -(diameters + 1)
		}
		s := newSlicer(ref, 1+diameters%(1<<16))
		checkClassify(t, s, geom.V(dx, dy), "fuzz")
	})
}

// BenchmarkDecode measures the paper's decode path per robot
// activation: view building, change counting and slicer classification
// of every other robot, with every robot always sending, so senders
// are always mid-excursion.
func BenchmarkDecode(b *testing.B) {
	protocols := []struct {
		name  string
		build func(n int) ([]sim.Behavior, []*Endpoint, error)
		sched func(seed int64) sim.Scheduler
	}{
		{"syncn-chirality", func(n int) ([]sim.Behavior, []*Endpoint, error) {
			return NewSyncN(n, SyncNConfig{Naming: NamingSEC})
		}, func(int64) sim.Scheduler { return sim.Synchronous{} }},
		{"asyncn", func(n int) ([]sim.Behavior, []*Endpoint, error) {
			return NewAsyncN(n, AsyncNConfig{})
		}, func(seed int64) sim.Scheduler { return sim.FirstSync{Inner: sim.NewRandomFair(seed)} }},
	}
	for _, p := range protocols {
		for _, n := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				positions := randomPositions(rng, n, 6)
				frames := frameSet(rng, n, false, geom.RightHanded)
				behaviors, eps, err := p.build(n)
				if err != nil {
					b.Fatal(err)
				}
				robots := make([]*sim.Robot, n)
				for i := range robots {
					robots[i] = &sim.Robot{Frame: frames[i], Sigma: 1e9, Behavior: behaviors[i]}
				}
				w, err := sim.NewWorld(sim.Config{Positions: positions, Robots: robots})
				if err != nil {
					b.Fatal(err)
				}
				sched := p.sched(int64(n))
				refill := func() {
					for i, e := range eps {
						e.Receive()
						e.Overheard()
						if e.Idle() {
							if err := e.Send((i+1+rng.Intn(n-1))%n, []byte{byte(i)}); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				refill()
				// The first instant initialises every robot (SEC naming,
				// granular radii); it is set-up, not decode.
				if _, err := w.Step(sched); err != nil {
					b.Fatal(err)
				}
				activations := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					active, err := w.Step(sched)
					if err != nil {
						b.Fatal(err)
					}
					activations += len(active)
					refill()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(activations), "ns/activation")
			})
		}
	}
}
