package waggle

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle/internal/ckpt"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden.ckpt, testdata/golden.ckptb and testdata/golden.trace")

const (
	goldenCkptPath    = "testdata/golden.ckpt"
	goldenCkptBinPath = "testdata/golden.ckptb"
	goldenTracePath   = "testdata/golden.trace"
)

// goldenReplayStack builds the committed replay scenario: a four-robot
// synchronous swarm under an active fault plan (crash, radio outage,
// jamming ramp), a fault-coupled radio, and a self-healing messenger.
// Everything is keyed by fixed seeds, so the execution is a constant of
// the codebase.
func goldenReplayStack(t *testing.T) faultedStack {
	t.Helper()
	return newFaultedStack(t, EngineSequential)
}

// goldenHead drives the scenario to the checkpoint instant — mid-plan,
// with messenger retries in flight.
func goldenHead(t *testing.T, st faultedStack) {
	t.Helper()
	faultedPhase1(t, st)
}

// goldenTail finishes the scenario from the checkpoint instant.
func goldenTail(t *testing.T, st faultedStack) {
	t.Helper()
	faultedPhase2(t, st)
}

func goldenTrace(t *testing.T, st faultedStack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.swarm.WriteTraceCSV(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenReplay is `make replay-check`: the committed checkpoint
// artifact restores, replays, and — after running the scenario's tail
// — reproduces the committed movement trace byte-for-byte. A failure
// means the execution semantics drifted from what the artifact
// recorded; regenerate with -update-golden only for intentional
// protocol changes.
func TestGoldenReplay(t *testing.T) {
	if *updateGolden {
		st := goldenReplayStack(t)
		goldenHead(t, st)
		ck, err := st.swarm.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCkptPath), 0o755); err != nil {
			t.Fatal(err)
		}
		// golden.ckpt is the v1 reference encoding the loader must keep
		// reading; no save writes v1, so it is encoded directly.
		v1, err := ckpt.Encode(ck)
		if err != nil {
			t.Fatalf("encode v1: %v", err)
		}
		if err := ckpt.WriteFileAtomic(goldenCkptPath, v1); err != nil {
			t.Fatalf("save: %v", err)
		}
		if err := SaveCheckpoint(goldenCkptBinPath, ck); err != nil {
			t.Fatalf("save binary: %v", err)
		}
		goldenTail(t, st)
		if err := os.WriteFile(goldenTracePath, goldenTrace(t, st), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden artifacts regenerated: %s, %s, %s", goldenCkptPath, goldenCkptBinPath, goldenTracePath)
		return
	}

	wantTrace, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden trace (run `go test -run TestGoldenReplay -update-golden .`): %v", err)
	}

	// The live scenario still produces the committed trace...
	live := goldenReplayStack(t)
	goldenHead(t, live)
	goldenTail(t, live)
	if got := goldenTrace(t, live); !bytes.Equal(got, wantTrace) {
		t.Fatalf("live run diverged from the committed golden trace (%d vs %d bytes)", len(got), len(wantTrace))
	}

	// ...and so does the committed checkpoint, restored and resumed.
	ck, err := LoadCheckpoint(goldenCkptPath)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := Restore(ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Radio == nil || res.Messenger == nil {
		t.Fatal("golden checkpoint restored without its radio or messenger")
	}
	st := faultedStack{swarm: res.Swarm, radio: res.Radio, bm: res.Messenger}
	goldenTail(t, st)
	if got := goldenTrace(t, st); !bytes.Equal(got, wantTrace) {
		t.Fatalf("resumed run diverged from the committed golden trace (%d vs %d bytes)", len(got), len(wantTrace))
	}
}

// TestGoldenReplayBinary: the committed BINARY checkpoint artifact
// (waggle-ckpt/v2 wire format) restores through the same auto-detecting
// loader and reproduces the committed trace — pinning the wire format
// itself, not just the schema: if the byte layout drifts, the committed
// artifact stops decoding. Runs under `make replay-check` alongside
// TestGoldenReplay; -update-golden regenerates both artifacts.
func TestGoldenReplayBinary(t *testing.T) {
	if *updateGolden {
		t.Skip("artifacts regenerated by TestGoldenReplay")
	}
	wantTrace, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden trace (run `go test -run TestGoldenReplay -update-golden .`): %v", err)
	}
	ck, err := LoadCheckpoint(goldenCkptBinPath)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// The binary artifact decodes to exactly the committed JSON one.
	jck, err := LoadCheckpoint(goldenCkptPath)
	if err != nil {
		t.Fatalf("load json: %v", err)
	}
	if !reflect.DeepEqual(ck, jck) {
		t.Fatal("binary and JSON golden checkpoints decode to different values")
	}
	res, err := Restore(ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	st := faultedStack{swarm: res.Swarm, radio: res.Radio, bm: res.Messenger}
	goldenTail(t, st)
	if got := goldenTrace(t, st); !bytes.Equal(got, wantTrace) {
		t.Fatalf("binary-restored run diverged from the committed golden trace (%d vs %d bytes)", len(got), len(wantTrace))
	}
}

// TestCheckpointCodecEquivalence: one live faulted stack written in
// all three formats — the v1 JSON dump, a v2 binary snapshot, a v2
// base + delta chain — yields three files that load back to deep-equal
// checkpoints, and each restores to a swarm whose re-captured state is
// deep-equal to the live one's.
func TestCheckpointCodecEquivalence(t *testing.T) {
	st := newFaultedStack(t, EngineSequential)
	faultedPhase1(t, st)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "a.ckpt")
	binPath := filepath.Join(dir, "a.ckptb")
	deltaPath := filepath.Join(dir, "a.ckptd")

	ck, err := st.swarm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := WriteCheckpoint(&dump, ck); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jsonPath, dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(binPath, ck); err != nil {
		t.Fatal(err)
	}
	// The delta file is written by the periodic writer: base earlier in
	// the run would need driving hooks, so fold correctness is exercised
	// by saving base and then an (empty-interval) delta frame on top —
	// the loader must fold the chain back to the same checkpoint.
	cw, err := st.swarm.NewCheckpointWriter(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Save(); err != nil { // base frame
		t.Fatal(err)
	}
	if err := cw.Save(); err != nil { // delta frame on top
		t.Fatal(err)
	}
	if !cw.LastSaveWasDelta() {
		t.Fatal("second writer save did not append a delta frame")
	}

	for _, path := range []string{jsonPath, binPath, deltaPath} {
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: load: %v", path, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Errorf("%s: loaded checkpoint differs from the captured one", path)
		}
		res, err := Restore(got)
		if err != nil {
			t.Fatalf("%s: restore: %v", path, err)
		}
		rck, err := res.Swarm.Checkpoint()
		if err != nil {
			t.Fatalf("%s: recapture: %v", path, err)
		}
		if !reflect.DeepEqual(rck.State, ck.State) {
			t.Errorf("%s: restored state differs from the live state", path)
		}
	}
}
