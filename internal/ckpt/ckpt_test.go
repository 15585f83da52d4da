package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Config: Config{
			Positions: []XY{{0, 0}, {10, 0}, {0, 10}},
			Options:   Options{Seed: 42, Trace: true, Sigma: 1.5},
			Radio:     &RadioConfig{N: 3, Seed: 99},
			Messenger: true,
			Observer:  &ObserverConfig{TraceCapacity: 8192},
		},
		Inputs: []Input{
			{Op: OpSend, From: 0, To: 1, Payload: []byte("HI")},
			{T: 3, Op: OpStep, Reps: 12},
			{T: 15, Op: OpRunDelivered, Count: 1, Max: 500},
		},
		State: State{
			Time:           27,
			Positions:      []XY{{0.5, 0}, {10, 0.25}, {0, 10}},
			Consumed:       1,
			SchedulerDraws: 81,
			Radio:          &RadioState{Seed: 99, Draws: 4, JamProb: 0.25},
			TraceDigest:    Digest([]byte("trace")),
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	data, err := Encode(ck)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("round trip mutated the checkpoint:\n got %+v\nwant %+v", got, ck)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(first %d bytes): got %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeCorrupted(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Flip one letter inside the body — a key-name character, so the
	// envelope still parses as JSON and carries the right schema; only
	// the checksum can catch this.
	i := bytes.Index(data, []byte(`"body"`)) + len(`"body"`)
	for i < len(data) && (data[i] < 'a' || data[i] > 'z') {
		i++
	}
	corrupt := append([]byte(nil), data...)
	corrupt[i] = '0'
	if _, err := Decode(corrupt); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted body: got %v, want ErrChecksum", err)
	}
}

func TestDecodeSchemaMismatch(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	wrong := bytes.Replace(data, []byte(Schema), []byte("waggle-ckpt/v0"), 1)
	if _, err := Decode(wrong); !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong schema: got %v, want ErrSchema", err)
	}
	if err != nil && !strings.Contains(err.Error(), "v0") {
		t.Fatalf("schema error should name the offending version: %v", err)
	}
}

// TestWriteFileAtomic: the atomic write leaves no temp file behind,
// and an overwrite replaces the previous contents whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := sampleCheckpoint()
	save := func() {
		t.Helper()
		data, err := Encode(ck)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := WriteFileAtomic(path, data); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	load := func() *Checkpoint {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return got
	}
	save()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory holds %v, want only run.ckpt", entries)
	}
	if got := load(); !reflect.DeepEqual(got, ck) {
		t.Fatalf("file round trip mutated the checkpoint")
	}
	ck.State.Time = 99
	save()
	if got := load(); got.State.Time != 99 {
		t.Fatalf("overwrite not visible: time %d, want 99", got.State.Time)
	}
}

func TestRecorderMergesRuns(t *testing.T) {
	r := NewRecorder()
	r.Record(Input{T: 1, Op: OpStep})
	r.Record(Input{T: 2, Op: OpStep})
	r.Record(Input{T: 3, Op: OpStep})
	r.Record(Input{T: 4, Op: OpSend, From: 0, To: 1, Payload: []byte("x")})
	r.Record(Input{T: 4, Op: OpStep})
	ops := r.Ops()
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3 (merged step run, send, step): %+v", len(ops), ops)
	}
	if ops[0].Op != OpStep || ops[0].Reps != 3 {
		t.Fatalf("first op = %+v, want 3-rep step run", ops[0])
	}
	if ops[2].Op != OpStep || ops[2].Reps != 0 {
		t.Fatalf("third op = %+v, want fresh single step (Reps 0 = once)", ops[2])
	}
}

func TestRecorderCopiesPayload(t *testing.T) {
	r := NewRecorder()
	p := []byte("live")
	r.Record(Input{Op: OpSend, Payload: p})
	p[0] = 'X'
	if got := string(r.Ops()[0].Payload); got != "live" {
		t.Fatalf("recorder aliased caller's payload: %q", got)
	}
}

func TestRecorderAbsorb(t *testing.T) {
	pre := NewRecorder()
	pre.Record(Input{Op: OpRadioBreak, From: 2})
	main := NewRecorder()
	main.Record(Input{Op: OpSend, From: 0, To: 1})
	main.AbsorbFrom(pre)
	ops := main.Ops()
	if len(ops) != 2 || ops[1].Op != OpRadioBreak {
		t.Fatalf("absorb got %+v, want send then rbreak", ops)
	}
	if pre.Len() != 0 {
		t.Fatalf("absorbed recorder still holds %d ops", pre.Len())
	}
}
