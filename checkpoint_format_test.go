package waggle

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// TestDecodeCheckpoint: the one format decision routes each writable
// format to its reader — a v2 snapshot, a v2 base + delta chain and a
// v1 JSON dump all decode to the checkpoint they were written from —
// and bytes that are neither fail with a typed error.
func TestDecodeCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wck")
	s, cw := chainSession(t, path)
	if cw.ChainLen() == 0 {
		t.Fatal("session wrote no delta frames")
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wire.Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := ckpt.Encode(ck)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"chain": chain, "snapshot": snap, "dump": dump} {
		got, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Errorf("%s: decoded checkpoint differs from the live one", name)
		}
	}
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"empty":       {nil, ErrCheckpointTruncated},
		"garbage":     {[]byte("not a checkpoint"), ErrCheckpointTruncated},
		"future v1":   {bytes.Replace(dump, []byte(ckpt.Schema), []byte("waggle-ckpt/v9"), 1), ErrCheckpointSchema},
		"v2 bit flip": {append(append([]byte(nil), snap[:len(snap)-1]...), snap[len(snap)-1]^1), ErrCheckpointChecksum},
	} {
		if _, err := decodeCheckpoint(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
}

// TestSaveCheckpointRoundTrip: SaveCheckpoint writes one v2 base
// atomically — no temp file left, an overwrite visible whole — and
// LoadCheckpoint reads it back unchanged.
func TestSaveCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wck")
	s, err := NewSwarm(ckptTestPositions(), ckptTestOptions(EngineSequential)...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveCheckpoint(path, ck); err != nil {
			t.Fatalf("round %d: save: %v", round, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "run.wck" {
			t.Fatalf("round %d: directory holds %v, want only run.wck", round, entries)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !wire.Detect(data) {
			t.Fatalf("round %d: SaveCheckpoint did not write a v2 base", round)
		}
		got, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("round %d: load: %v", round, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Fatalf("round %d: file round trip changed the checkpoint (t=%d, want %d)", round, got.State.Time, ck.State.Time)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadCheckpointMissing: a missing file is an error, not an empty
// checkpoint.
func TestLoadCheckpointMissing(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.wck")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// FuzzReadCheckpoint attacks the one loader entry: whatever bytes a
// checkpoint file holds, ReadCheckpoint must not panic, must fail only
// with the typed sentinels, and must hand back a checkpoint that
// SaveCheckpoint's encoder can write again.
func FuzzReadCheckpoint(f *testing.F) {
	for _, path := range []string{goldenCkptPath, goldenCkptBinPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	chainPath := filepath.Join(f.TempDir(), "s.wck")
	chainSession(f, chainPath)
	chain, err := os.ReadFile(chainPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chain)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCheckpointSchema) && !errors.Is(err, ErrCheckpointChecksum) && !errors.Is(err, ErrCheckpointTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if _, err := wire.Encode(ck); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
	})
}
