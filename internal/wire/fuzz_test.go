package wire

import (
	"errors"
	"reflect"
	"testing"

	"waggle/internal/ckpt"
)

// FuzzDecodeCheckpoint hammers the binary decoder with arbitrary
// bytes. The contract under attack: Decode never panics, never
// allocates proportionally to a length claimed by the input (only to
// the input's actual size), and every failure is one of the typed
// sentinels — ErrSchema, ErrChecksum, ErrTruncated — so callers can
// distinguish "wrong format" from "damaged file" from "torn write".
func FuzzDecodeCheckpoint(f *testing.F) {
	// Seed corpus: valid encodings of increasingly-populated
	// checkpoints plus a multi-frame delta chain, so mutation starts
	// from deep inside the format instead of rediscovering the magic.
	small := &ckpt.Checkpoint{
		Config: ckpt.Config{Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}}},
		State: ckpt.State{
			Positions: []ckpt.XY{{X: 0, Y: 0}, {X: 1, Y: 1}},
			Endpoints: []ckpt.EndpointState{{Idle: true}, {Idle: true}},
		},
	}
	if data, err := Encode(small); err == nil {
		f.Add(data)
	}
	full := fullCheckpoint()
	if data, err := Encode(full); err == nil {
		f.Add(data)
	}
	if base, crc, err := EncodeBaseFrame(full); err == nil {
		cur := mutateCheckpoint(full)
		if d, err := ComputeDelta(full, cur); err == nil {
			if frame, _, err := EncodeDeltaFrame(d, &full.State, crc); err == nil {
				f.Add(append(append([]byte(nil), base...), frame...))
			}
		}
	}
	f.Add([]byte(magicBase.Tag))
	f.Add([]byte(magicDelta.Tag))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ckpt.ErrSchema) && !errors.Is(err, ckpt.ErrChecksum) && !errors.Is(err, ckpt.ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must hand back an internally consistent
		// checkpoint: re-encoding it must work (the encoder validates
		// ascending indices and schema invariants as it goes).
		if _, err := Encode(ck); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
	})
}

// addLogSeeds seeds a fuzz target with a stream written here, the
// torn-tail suite's cuts of its final record (mid-magic, mid-length,
// mid-CRC, mid-body) and a base + delta chain, so mutation starts from
// valid frames of every magic.
func addLogSeeds(f *testing.F, add func(data []byte)) {
	stream, offs := writePinStream(f, f.TempDir())
	add(stream)
	last := offs[len(offs)-2]
	for _, cut := range []int64{last + 2, last + 4, last + 6, int64(len(stream)) - 1} {
		add(stream[:cut])
	}
	add(append(append([]byte(nil), stream...), "XY"...))
	base := pinBase()
	if frame, crc, err := EncodeBaseFrame(base); err == nil {
		if d, err := ComputeDelta(base, pinNext(base)); err == nil {
			if delta, _, err := EncodeDeltaFrame(d, &base.State, crc); err == nil {
				chain := append(append([]byte(nil), frame...), delta...)
				add(chain)
				add(chain[:len(frame)+5])
			}
		}
	}
}

// FuzzScanLog attacks the byte boundary every append-only file shares.
// The scanner must never panic, never report an end past the data,
// never pair a torn tail with an error, and always be stable on its own
// clean prefix: re-scanning data[:end] yields the same frames, untorn.
func FuzzScanLog(f *testing.F) {
	addLogSeeds(f, func(data []byte) { f.Add(data) })
	magics := []Magic{magicBase, magicDelta, magicStream}
	scan := func(data []byte) ([]Frame, int64, bool, error) {
		var frames []Frame
		end, torn, err := ScanLog(data, magics, func(fr Frame) error {
			frames = append(frames, fr)
			return nil
		})
		return frames, end, torn, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, end, torn, err := scan(data)
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("end %d outside [0, %d]", end, len(data))
		}
		if torn && err != nil {
			t.Fatalf("torn tail reported together with error %v", err)
		}
		again, end2, torn2, err2 := scan(data[:end])
		if err2 != nil || torn2 || end2 != end {
			t.Fatalf("clean prefix rescan: end=%d (want %d) torn=%v err=%v", end2, end, torn2, err2)
		}
		if !reflect.DeepEqual(again, frames) {
			t.Fatalf("clean prefix rescan found different frames")
		}
	})
}

// FuzzTailStream attacks the spectate path, which passes
// client-controlled offsets (?offset=, Last-Event-ID) and caps into
// TailStream. It must never panic, and the records it returns must be
// contiguous, capped, and end at the next offset it reports.
func FuzzTailStream(f *testing.F) {
	addLogSeeds(f, func(data []byte) {
		for _, off := range []int64{-1, 0, 29, 1 << 40} {
			f.Add(data, off, 0)
			f.Add(data, off, 2)
		}
	})
	f.Fuzz(func(t *testing.T, data []byte, offset int64, max int) {
		recs, next, _, err := TailStream(data, offset, max)
		if err != nil {
			return
		}
		if next < 0 || next > int64(len(data)) {
			t.Fatalf("next %d outside [0, %d]", next, len(data))
		}
		if max > 0 && len(recs) > max {
			t.Fatalf("%d records past the cap %d", len(recs), max)
		}
		for i, rec := range recs {
			if i > 0 && rec.Offset != recs[i-1].Next {
				t.Fatalf("record %d starts at %d, previous ended at %d", i, rec.Offset, recs[i-1].Next)
			}
		}
		if len(recs) > 0 && recs[len(recs)-1].Next != next {
			t.Fatalf("last record ends at %d, next is %d", recs[len(recs)-1].Next, next)
		}
	})
}
