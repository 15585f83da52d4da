package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"waggle"
	"waggle/internal/ckpt"
)

// ckptSchema identifies the BENCH_ckpt.json layout.
const ckptSchema = "waggle-bench-ckpt/v1"

// ckptSparse is the number of robots whose state changes per delta
// save interval — the sparse workload delta checkpoints are built for.
// The interval mutations go through the recorded Send API (cheap, and
// exactly what a checkpoint must replay); the chatting protocols
// themselves cannot step a million-robot swarm. Each robot builds the
// swarm geometry once, at its first activation, but under SEC naming
// that is n relative namings (O(n^2 log n) per robot), and every later
// activation decodes all n-1 other robots, so position churn at these
// sizes is exercised by the chaos property tests at protocol scale
// instead.
const ckptSparse = 16

// CkptResult is one checkpoint-codec measurement at one swarm size.
type CkptResult struct {
	// N is the swarm size.
	N int `json:"n"`
	// Codec is "json" (v1 envelope), "binary" (v2 wire format, full
	// snapshot) or "delta" (v2 base + per-save delta frames; SaveNs and
	// Bytes are the per-interval delta cost, not the base).
	Codec string `json:"codec"`
	// Iterations is how many saves (and restores) were averaged.
	Iterations int `json:"iterations"`
	// SaveNs is wall time per save: state capture + encode + durable
	// write (fsync). For "delta" it is the incremental append.
	SaveNs float64 `json:"save_ns"`
	// RestoreNs is wall time to load the file and rebuild a verified
	// swarm from it (decode + chain fold + replay + state recapture +
	// deep-equal check).
	RestoreNs float64 `json:"restore_ns"`
	// Bytes is the size of one save: the whole file for json/binary,
	// the appended delta frame for delta.
	Bytes int64 `json:"bytes"`
	// FileBytes is the on-disk file size after the measured saves (for
	// delta: base frame + the whole chain).
	FileBytes int64 `json:"file_bytes"`

	// saves holds each timed save's wall time, for the smoke gate's
	// medians.
	saves []float64
}

// medianNs returns the median of the timed saves.
func (r CkptResult) medianNs() float64 {
	s := slices.Clone(r.saves)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// CkptBench is the BENCH_ckpt.json document.
type CkptBench struct {
	Schema  string       `json:"schema"`
	Results []CkptResult `json:"results"`
	Notes   []string     `json:"notes"`
}

// ckptSwarm builds the benchmark swarm at uniform density and seeds it
// with some queued traffic so the captured state is not a blank slate:
// endpoint outboxes, a recorded input log the restore must replay.
func ckptSwarm(n int) (*waggle.Swarm, error) {
	rng := rand.New(rand.NewSource(int64(31 + n)))
	side := math.Sqrt(float64(n)) * 10
	pts := make([]waggle.Point, n)
	for i := range pts {
		pts[i] = waggle.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	s, err := waggle.NewSwarm(pts, waggle.WithSeed(1))
	if err != nil {
		return nil, err
	}
	if err := mutate(s, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// mutate changes the state of ckptSparse robots through the public
// (recorded) API — the sparse per-interval churn between delta saves.
func mutate(s *waggle.Swarm, interval int) error {
	n := s.N()
	for k := 0; k < ckptSparse; k++ {
		from := (interval*ckptSparse + k) % n
		to := (from + 1) % n
		if err := s.Send(from, to, []byte{byte(interval), byte(k)}); err != nil {
			return err
		}
	}
	return nil
}

// fullSaves are the full-snapshot rows, each one save of the swarm's
// whole state to path. "json" is the v1 reference encoder behind a
// capture and an atomic write: not a save path, but the yardstick the
// binary row's size and speed are measured against. "binary" is
// SaveCheckpoint.
var fullSaves = []struct {
	codec string
	save  func(s *waggle.Swarm, path string) error
}{
	{"json", func(s *waggle.Swarm, path string) error {
		ck, err := s.Checkpoint()
		if err != nil {
			return err
		}
		data, err := ckpt.Encode(ck)
		if err != nil {
			return err
		}
		return ckpt.WriteFileAtomic(path, data)
	}},
	{"binary", func(s *waggle.Swarm, path string) error {
		ck, err := s.Checkpoint()
		if err != nil {
			return err
		}
		return waggle.SaveCheckpoint(path, ck)
	}},
}

// measureFull times one full-snapshot row's saves and restores.
func measureFull(s *waggle.Swarm, n int, codec string, save func(*waggle.Swarm, string) error, iters int, dir string) (CkptResult, error) {
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.%s", n, codec))
	var saveNs int64
	var saves []float64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := save(s, path); err != nil {
			return CkptResult{}, err
		}
		d := time.Since(t0).Nanoseconds()
		saveNs += d
		saves = append(saves, float64(d))
	}
	restoreNs, err := measureRestore(path, iters)
	if err != nil {
		return CkptResult{}, err
	}
	return CkptResult{
		N: n, Codec: codec, Iterations: iters,
		SaveNs:    float64(saveNs) / float64(iters),
		RestoreNs: restoreNs,
		Bytes:     fileBytes(path),
		FileBytes: fileBytes(path),
		saves:     saves,
	}, nil
}

// measureDelta times the incremental path: one base snapshot, then
// `iters` save intervals of a few sparse instants each, timing only the
// delta appends. The restore folds the whole chain.
func measureDelta(s *waggle.Swarm, n, iters int, dir string) (CkptResult, error) {
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%d.delta", n))
	cw, err := s.NewCheckpointWriter(path)
	if err != nil {
		return CkptResult{}, err
	}
	// First save writes the base frame; not part of the delta cost.
	if err := cw.Save(); err != nil {
		return CkptResult{}, err
	}
	var saveNs, bytes int64
	var saves []float64
	for i := 0; i < iters; i++ {
		// The save interval: sparse churn via the recorded API, untimed
		// — the benchmark isolates the checkpoint cost, not the workload.
		if err := mutate(s, i+1); err != nil {
			return CkptResult{}, err
		}
		t0 := time.Now()
		if err := cw.Save(); err != nil {
			return CkptResult{}, err
		}
		d := time.Since(t0).Nanoseconds()
		saveNs += d
		saves = append(saves, float64(d))
		if !cw.LastSaveWasDelta() {
			return CkptResult{}, fmt.Errorf("n=%d: save %d was not a delta (unexpected rebase)", n, i)
		}
		bytes += int64(cw.LastSaveBytes())
	}
	restoreNs, err := measureRestore(path, iters)
	if err != nil {
		return CkptResult{}, err
	}
	return CkptResult{
		N: n, Codec: "delta", Iterations: iters,
		SaveNs:    float64(saveNs) / float64(iters),
		RestoreNs: restoreNs,
		Bytes:     bytes / int64(iters),
		FileBytes: fileBytes(path),
		saves:     saves,
	}, nil
}

// measureRestore times LoadCheckpoint + Restore (decode, chain fold,
// replay, recapture, deep-equal verification) averaged over iters.
func measureRestore(path string, iters int) (float64, error) {
	var total int64
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		ck, err := waggle.LoadCheckpoint(path)
		if err != nil {
			return 0, err
		}
		if _, err := waggle.Restore(ck); err != nil {
			return 0, err
		}
		total += time.Since(t0).Nanoseconds()
	}
	return float64(total) / float64(iters), nil
}

func fileBytes(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// ckptSmokeSaves is the number of saves per path in smoke mode.
const ckptSmokeSaves = 15

// ckptIters keeps the big sizes tractable on one core.
func ckptIters(n int) int {
	switch {
	case n <= 512:
		return 10
	case n <= 10_000:
		return 5
	case n <= 100_000:
		return 2
	default:
		return 1
	}
}

// runCkpt executes the checkpoint-codec benchmark and writes
// BENCH_ckpt.json. In smoke mode it runs n=10k once, asserts the
// headline ratios (binary ≤ 25% of JSON bytes; delta save ≥ 10x faster
// than a binary full save), and writes nothing. The save ratio compares
// medians of ckptSmokeSaves saves per path: a few fsync stalls move a
// mean of two saves past the bound, but not a median of fifteen.
func runCkpt(out string, smoke bool) error {
	sizes := []int{512, 10_000, 100_000, 1_000_000}
	if smoke {
		sizes = []int{10_000}
	}
	dir, err := os.MkdirTemp("", "waggle-bench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bench := CkptBench{Schema: ckptSchema}
	for _, n := range sizes {
		iters := ckptIters(n)
		if smoke {
			iters = ckptSmokeSaves
		}
		s, err := ckptSwarm(n)
		if err != nil {
			return fmt.Errorf("n=%d: build: %w", n, err)
		}
		var row [3]CkptResult
		for i, f := range fullSaves {
			res, err := measureFull(s, n, f.codec, f.save, iters, dir)
			if err != nil {
				return fmt.Errorf("n=%d %s: %w", n, f.codec, err)
			}
			row[i] = res
		}
		res, err := measureDelta(s, n, iters, dir)
		if err != nil {
			return fmt.Errorf("n=%d delta: %w", n, err)
		}
		row[2] = res
		for _, r := range row {
			bench.Results = append(bench.Results, r)
			fmt.Printf("%-7s n=%-8d save %12.0f ns  restore %12.0f ns  %10d B/save  (file %d B)\n",
				r.Codec, r.N, r.SaveNs, r.RestoreNs, r.Bytes, r.FileBytes)
		}
		jsonB, binB := row[0].Bytes, row[1].Bytes
		binSave, deltaSave := row[1].SaveNs, row[2].SaveNs
		if smoke {
			binSave, deltaSave = row[1].medianNs(), row[2].medianNs()
		}
		fmt.Printf("ratio   n=%-8d binary/json bytes %5.1f%%   delta/full save %6.1fx faster\n",
			n, 100*float64(binB)/float64(jsonB), binSave/deltaSave)
		if smoke || n >= 10_000 {
			if binB*4 > jsonB {
				msg := fmt.Sprintf("n=%d: binary snapshot is %d B, more than 25%% of the %d B JSON snapshot", n, binB, jsonB)
				if smoke {
					return fmt.Errorf("%s", msg)
				}
				fmt.Println("WARNING:", msg)
			}
			if deltaSave*10 > binSave {
				msg := fmt.Sprintf("n=%d: delta save (%.0f ns) is not 10x faster than a binary full save (%.0f ns)", n, deltaSave, binSave)
				if smoke {
					return fmt.Errorf("%s", msg)
				}
				fmt.Println("WARNING:", msg)
			}
		}
	}
	if smoke {
		fmt.Println("smoke ckpt ok: binary <= 25% of JSON bytes, delta save >= 10x faster than full")
		return nil
	}
	bench.Notes = []string{
		fmt.Sprintf("workload: asynchronous anonymous swarm at uniform density; between delta saves %d robots change state through the recorded Send API — the sparse regime delta checkpoints target; position churn is exercised by the chaos resume tests at protocol scale, since the chatting protocols cannot step at these sizes: each robot computes n SEC namings at its first activation and decodes all n-1 others on every activation", ckptSparse),
		"save_ns covers state capture + encode + durable write (fsync before the atomic rename; O_APPEND + fsync for delta frames); restore_ns covers read + decode (+ chain fold) + input replay + state recapture + the deep-equal verification restore always performs",
		"delta rows report the per-interval appended frame in bytes and save_ns; file_bytes is the base frame plus the whole measured chain",
		"json is the v1 envelope kept for debuggability; binary is the waggle-ckpt/v2 wire format (varints, zig-zag position deltas, run-length input logs); delta appends waggle-ckpt/v2 delta frames holding only changed robots",
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", out, len(bench.Results))
	return nil
}
