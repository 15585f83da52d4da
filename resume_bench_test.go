package waggle

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkResumeByAge measures what resuming an evicted waggle-serve
// session costs as the session ages: 4 robots, trace on, aged by a send
// and 20-instant steps with a delta-chain save after each (the serve
// write path). Each iteration resumes from the same chain file and
// reports the phases separately, in ms per resume:
//
//   - load: read the file and fold the chain (LoadCheckpoint);
//   - replay: build the swarm and re-execute the input log;
//   - verify: re-capture the state (including the one full trace hash)
//     and deep-compare it with the stored snapshot;
//   - save: build the checkpoint writer (which adopts the chain) and
//     take the first save after a send — a delta append unless the
//     aged chain is due for a rebase (reported as delta-saves).
//
// Load, replay and verify together are Restore.
func BenchmarkResumeByAge(b *testing.B) {
	for _, age := range []int{400, 1600, 6400} {
		b.Run(fmt.Sprintf("instants=%d", age), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "s.wck")
			chain := agedChain(b, path, age)
			var load, replay, verify, save time.Duration
			deltas := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.WriteFile(path, chain, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()

				t0 := time.Now()
				ck, err := LoadCheckpoint(path)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				s, err := newSwarm(pointsFromXY(ck.Config.Positions), optionsFromCkpt(ck.Config.Options))
				if err != nil {
					b.Fatal(err)
				}
				if err := replayInputs(s, nil, nil, ck.Inputs); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if err := s.verifyRestore(ck); err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				cw, err := s.NewCheckpointWriter(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Send(0, 1, []byte{0x5a}); err != nil {
					b.Fatal(err)
				}
				if err := cw.Save(); err != nil {
					b.Fatal(err)
				}
				t4 := time.Now()
				if cw.LastSaveWasDelta() {
					deltas++
				}
				load += t1.Sub(t0)
				replay += t2.Sub(t1)
				verify += t3.Sub(t2)
				save += t4.Sub(t3)
			}
			per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(b.N) }
			b.ReportMetric(per(load), "load-ms/op")
			b.ReportMetric(per(replay), "replay-ms/op")
			b.ReportMetric(per(verify), "verify-ms/op")
			b.ReportMetric(per(save), "save-ms/op")
			b.ReportMetric(float64(deltas)/float64(b.N), "delta-saves")
			b.ReportMetric(float64(len(chain)), "chain-B")
		})
	}
}

// agedChain ages a serve-shaped session to the given number of
// instants, saving to a delta chain at path after every op, and
// returns the chain's bytes.
func agedChain(b *testing.B, path string, instants int) []byte {
	b.Helper()
	pts := []Point{{0, 0}, {9, 0}, {18, 0}, {27, 0}}
	s, err := NewSwarm(pts, WithSeed(11), WithTrace())
	if err != nil {
		b.Fatal(err)
	}
	cw, err := s.NewCheckpointWriter(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := cw.Save(); err != nil {
		b.Fatal(err)
	}
	for op := 0; s.Time() < instants; op++ {
		if op%4 == 0 {
			if err := s.Send(op/4%4, (op/4+1)%4, []byte("age")); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 20; k++ {
			if err := s.Step(); err != nil {
				b.Fatal(err)
			}
		}
		if err := cw.Save(); err != nil {
			b.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return data
}
