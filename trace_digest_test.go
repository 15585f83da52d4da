package waggle

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
)

// oracleTraceDigest renders the swarm's trace CSV independently of
// sim.Trace.WriteCSV — fmt rows over the recorded initial configuration
// and per-instant positions — and hashes the whole of it.
func oracleTraceDigest(s *Swarm) string {
	tr := s.net.World().Trace()
	h := sha256.New()
	io.WriteString(h, "time,robot,x,y\n")
	for i, p := range tr.Initial() {
		fmt.Fprintf(h, "%d,%d,%g,%g\n", -1, i, p.X, p.Y)
	}
	for _, st := range tr.Steps() {
		for i, p := range st.Positions {
			fmt.Fprintf(h, "%d,%d,%g,%g\n", st.Time, i, p.X, p.Y)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCase is one traced swarm the incremental digest is checked on.
type digestCase struct {
	name      string
	positions []Point
	// opts builds fresh options per swarm: an observer is per swarm.
	opts func() []Option
}

func digestCases(engine EngineMode) []digestCase {
	pair := []Point{{0, 0}, {10, 0}}
	six := []Point{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {20, 3}, {4, 21}}
	base := func(more ...func() Option) func() []Option {
		return func() []Option {
			opts := []Option{WithSeed(7), WithTrace(), WithEngine(engine)}
			for _, m := range more {
				opts = append(opts, m())
			}
			return opts
		}
	}
	return []digestCase{
		{"sync2", pair, base(WithSynchronous)},
		{"syncN-ids", six, base(WithSynchronous, WithIdentifiedRobots)},
		{"syncN-sod", six, base(WithSynchronous, WithSenseOfDirection)},
		{"syncN-chirality", six, base(WithSynchronous)},
		{"async2", pair, base()},
		{"asyncN", six, base(func() Option { return WithObserver(NewObserver()) })},
		// Displacements teleport robots at the start of an instant,
		// outside the apply loop; the crash window leaves instants in
		// which no robot moves at all.
		{"faults", six, base(WithSynchronous, func() Option {
			return WithFaultPlan(FaultPlan{Events: []FaultEvent{
				{Kind: FaultDisplace, Robot: 2, At: 3, DX: 1.5, DY: -0.25},
				{Kind: FaultDisplace, Robot: -1, At: 40, DX: -2e-7, DY: 1e21},
				{Kind: FaultCrash, Robot: -1, At: 60, Until: 70},
				{Kind: FaultDisplace, Robot: 0, At: 65, DX: 3, DY: 3},
			}})
		})},
	}
}

// digestWorkout drives s through a seeded interleaving of multi-instant
// steps, sends, checkpoints and stream attach/close, checking after
// every call that the incremental trace digest equals the oracle. It
// returns the last checkpoint it took.
func digestWorkout(t *testing.T, s *Swarm, seed int64, ops int) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	check := func(what, got string) {
		t.Helper()
		if want := oracleTraceDigest(s); got != want {
			t.Fatalf("t=%d after %s: digest %s, oracle %s", s.Time(), what, got, want)
		}
	}
	var last *Checkpoint
	streams := 0
	for op := 0; op < ops; op++ {
		var what string
		switch k := rng.Intn(10); {
		case k < 5:
			// Up to ~50 instants per call, so one digest request can
			// span several 4 KiB render chunks.
			steps := 1 + rng.Intn(50)
			what = fmt.Sprintf("%d steps", steps)
			for i := 0; i < steps; i++ {
				if err := s.Step(); err != nil {
					t.Fatalf("step: %v", err)
				}
			}
		case k < 7:
			from := rng.Intn(s.N())
			to := (from + 1 + rng.Intn(s.N()-1)) % s.N()
			what = fmt.Sprintf("send %d->%d", from, to)
			if err := s.Send(from, to, []byte{byte(rng.Intn(256))}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case k < 9:
			what = "checkpoint"
			ck, err := s.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			check("checkpoint (stored)", ck.State.TraceDigest)
			last = ck
		default:
			if sw := s.Stream(); sw != nil {
				what = "stream close"
				want := oracleTraceDigest(s)
				if err := sw.Close(); err != nil {
					t.Fatalf("stream close: %v", err)
				}
				rep, err := ReplayStream(sw.Path())
				if err != nil {
					t.Fatalf("replay stream: %v", err)
				}
				if rep.StreamDigest != want {
					t.Fatalf("t=%d: closing keyframe digest %s, oracle %s", s.Time(), rep.StreamDigest, want)
				}
			} else {
				what = "stream attach"
				streams++
				if _, err := s.NewStreamWriter(filepath.Join(dir, fmt.Sprintf("s%d.wstream", streams))); err != nil {
					t.Fatalf("stream attach: %v", err)
				}
			}
		}
		got, err := s.traceDigest()
		if err != nil {
			t.Fatalf("digest: %v", err)
		}
		check(what, got)
	}
	if sw := s.Stream(); sw != nil {
		if err := sw.Close(); err != nil {
			t.Fatalf("stream close: %v", err)
		}
	}
	return last
}

// TestTraceDigestMatchesOracle pins the incremental trace digest to an
// independent full-render oracle across every protocol, both engines,
// a fault plan, and swarms rebuilt by Restore and WithRestore.
func TestTraceDigestMatchesOracle(t *testing.T) {
	engines := map[string]EngineMode{"sequential": EngineSequential, "parallel": EngineParallel}
	for ename, engine := range engines {
		for i, tc := range digestCases(engine) {
			t.Run(ename+"/"+tc.name, func(t *testing.T) {
				s, err := NewSwarm(tc.positions, tc.opts()...)
				if err != nil {
					t.Fatalf("NewSwarm: %v", err)
				}
				ck := digestWorkout(t, s, int64(100+i), 40)
				if ck == nil {
					if ck, err = s.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}

				res, err := Restore(ck)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				digestWorkout(t, res.Swarm, int64(200+i), 15)

				rebuilt, err := NewSwarm(tc.positions, append(tc.opts(), WithRestore(ck))...)
				if err != nil {
					t.Fatalf("WithRestore: %v", err)
				}
				digestWorkout(t, rebuilt, int64(300+i), 15)
			})
		}
	}
}

// TestTraceDigestEmptyTrace covers a traced swarm that has not stepped:
// the digest is the header plus the initial configuration.
func TestTraceDigestEmptyTrace(t *testing.T) {
	s, err := NewSwarm([]Point{{0, 0}, {-0.5, 1e-7}}, WithTrace())
	if err != nil {
		t.Fatalf("NewSwarm: %v", err)
	}
	for i := 0; i < 2; i++ {
		got, err := s.traceDigest()
		if err != nil {
			t.Fatalf("digest: %v", err)
		}
		if want := oracleTraceDigest(s); got != want {
			t.Fatalf("request %d: digest %s, oracle %s", i, got, want)
		}
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if want := oracleTraceDigest(s); ck.State.TraceDigest != want {
		t.Fatalf("checkpoint digest %s, oracle %s", ck.State.TraceDigest, want)
	}
}
