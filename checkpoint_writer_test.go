package waggle

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// chainSession builds the shape a waggle-serve session has — four
// robots, trace and observer on — with a checkpoint writer at path that
// has saved a base and a few deltas.
func chainSession(t testing.TB, path string) (*Swarm, *CheckpointWriter) {
	t.Helper()
	s, err := NewSwarm(ckptTestPositions(), ckptTestOptions(EngineSequential)...)
	if err != nil {
		t.Fatalf("NewSwarm: %v", err)
	}
	cw, err := s.NewCheckpointWriter(path)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := cw.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	chainOps(t, s, cw, 3)
	return s, cw
}

// chainOps runs `saves` rounds of a send plus 20 instants, saving after
// each round, and requires every save to append a delta.
func chainOps(t testing.TB, s *Swarm, cw *CheckpointWriter, saves int) {
	t.Helper()
	for i := 0; i < saves; i++ {
		if err := s.Send(i%4, (i+1)%4, []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
		for k := 0; k < 20; k++ {
			if err := s.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
		}
		if err := cw.Save(); err != nil {
			t.Fatalf("save: %v", err)
		}
		if !cw.LastSaveWasDelta() {
			t.Fatalf("save %d at t=%d rewrote a base (chain %d)", i, s.Time(), cw.ChainLen())
		}
	}
}

// resumeFrom does what waggle-serve does to an evicted session: load
// the chain, restore it, and build a fresh writer over it.
func resumeFrom(t *testing.T, path string) (*Swarm, *CheckpointWriter) {
	t.Helper()
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := Restore(ck)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	cw, err := res.Swarm.NewCheckpointWriter(path)
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	return res.Swarm, cw
}

// requireFoldsTo loads the file and requires it to fold to s's live
// checkpoint.
func requireFoldsTo(t *testing.T, path string, s *Swarm) {
	t.Helper()
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file folds to a different checkpoint than the live swarm at t=%d", s.Time())
	}
}

// TestWriterResumeContinuesChain pins chain adoption: after an evict and
// resume, the new writer's first save appends a delta to the existing
// chain, and the file keeps folding to the live state — through several
// evict/resume cycles, ending byte-identical to an unevicted control.
func TestWriterResumeContinuesChain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.wck")
	control, ccw := chainSession(t, filepath.Join(dir, "control.wck"))
	_, cw := chainSession(t, path)
	chain := cw.ChainLen()

	for cycle := 0; cycle < 3; cycle++ {
		s, rcw := resumeFrom(t, path)
		if rcw.ChainLen() != chain {
			t.Fatalf("cycle %d: adopted chain length %d, file has %d", cycle, rcw.ChainLen(), chain)
		}
		chainOps(t, s, rcw, 2)
		chainOps(t, control, ccw, 2)
		chain += 2
		if rcw.ChainLen() != chain {
			t.Fatalf("cycle %d: chain length %d after two appends, want %d", cycle, rcw.ChainLen(), chain)
		}
		requireFoldsTo(t, path, s)
		if got, want := fingerprint(t, s), fingerprint(t, control); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: resumed run diverged from the unevicted control", cycle)
		}
	}
}

// TestWriterResumeTruncatesTornTail pins the crash path: a chain whose
// last delta was torn mid-append loads as of the frame before it; the
// adopting writer truncates the torn bytes before its first append, and
// the result loads and folds to the live state.
func TestWriterResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wck")
	_, cw := chainSession(t, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := st.Size() - int64(cw.LastSaveBytes()/2)
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}
	clean := st.Size() - int64(cw.LastSaveBytes())

	s, rcw := resumeFrom(t, path)
	chainOps(t, s, rcw, 1)
	st, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := clean + int64(rcw.LastSaveBytes()); st.Size() != want {
		t.Fatalf("file is %d bytes after the append, want clean end %d + frame %d", st.Size(), clean, rcw.LastSaveBytes())
	}
	requireFoldsTo(t, path, s)
}

// TestWriterDoesNotAdoptForeignChain pins the guard: a chain that does
// not fold to the swarm's checkpoint — the swarm moved on after the
// restore, or the file holds another codec — is not continued; the
// first save writes a base.
func TestWriterDoesNotAdoptForeignChain(t *testing.T) {
	t.Run("state moved on", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.wck")
		chainSession(t, path)
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Swarm.Step(); err != nil {
			t.Fatal(err)
		}
		cw, err := res.Swarm.NewCheckpointWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		if cw.ChainLen() != 0 {
			t.Fatalf("writer adopted a chain of %d deltas that does not match the swarm", cw.ChainLen())
		}
		if err := cw.Save(); err != nil {
			t.Fatal(err)
		}
		if cw.LastSaveWasDelta() {
			t.Fatal("first save over a mismatched chain appended a delta")
		}
		requireFoldsTo(t, path, res.Swarm)
	})
	t.Run("other codec", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "s.ckpt")
		s, err := NewSwarm(ckptTestPositions(), ckptTestOptions(EngineSequential)...)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var dump bytes.Buffer
		if err := WriteCheckpoint(&dump, ck); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, dump.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		cw, err := s.NewCheckpointWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Save(); err != nil {
			t.Fatal(err)
		}
		if cw.LastSaveWasDelta() {
			t.Fatal("first save over a JSON dump appended a delta")
		}
		requireFoldsTo(t, path, s)
	})
}
