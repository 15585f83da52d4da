package wire

import (
	"fmt"

	"waggle/internal/ckpt"
)

// Frame layout. A v2 checkpoint file is one base frame followed by zero
// or more delta frames, in the log.go frame discipline:
//
//	base:  "WCK2" | uvarint(len(body)) | crc32(body) LE32 | body
//	delta: "WCD2" | uvarint(len(body)) | crc32(body) LE32 | prevCRC LE32 | body
//
// prevCRC is the body CRC of the immediately preceding frame, chaining
// each delta to exactly the state it was computed against: appending to
// the wrong file, or dropping a middle frame, fails the load with
// ErrChecksum instead of folding a plausible-but-wrong state. (The
// restore-time recapture check would catch that too — the link just
// turns a late, opaque mismatch into an immediate, typed one.)
//
// Only a *trailing* delta frame may be torn (a prefix of it left at
// EOF): that is the signature of a crash during an append, and the
// chain loads as of the last complete frame — matching the atomicity
// the v1 rename-based save promises. A torn base frame, or corruption
// anywhere else, is a typed error.

// chainMagics are the frame kinds a v2 checkpoint file may hold.
var chainMagics = []Magic{magicBase, magicDelta}

// EncodeBaseFrame serializes a checkpoint as one base frame and returns
// the frame plus the body CRC (the prevCRC for the first appended
// delta).
func EncodeBaseFrame(ck *ckpt.Checkpoint) ([]byte, uint32, error) {
	body, err := encodeCheckpointBody(ck)
	if err != nil {
		return nil, 0, err
	}
	frame, crc := EncodeFrame(magicBase, 0, body)
	return frame, crc, nil
}

// EncodeDeltaFrame serializes a delta (computed against the folded
// state prev) as one appendable frame, linked to the preceding frame's
// body CRC. It returns the frame plus this frame's body CRC.
func EncodeDeltaFrame(d *Delta, prev *ckpt.State, prevCRC uint32) ([]byte, uint32, error) {
	body, err := encodeDeltaBody(d, prev)
	if err != nil {
		return nil, 0, err
	}
	frame, crc := EncodeFrame(magicDelta, prevCRC, body)
	return frame, crc, nil
}

// DecodeChain parses a base frame plus appended delta frames and folds
// them into one checkpoint.
func DecodeChain(data []byte) (*ckpt.Checkpoint, error) {
	c, err := ScanChain(data)
	if err != nil {
		return nil, err
	}
	return c.Checkpoint, nil
}

// Chain is a scanned v2 checkpoint file: the folded checkpoint plus
// what a writer needs to keep appending to the chain where it ends.
type Chain struct {
	// Checkpoint is the base folded with every complete delta frame.
	Checkpoint *ckpt.Checkpoint
	// BaseBytes is the size of the base frame; DeltaBytes the summed
	// size of the complete delta frames after it. Their sum is the
	// clean end: the offset just past the last complete frame.
	BaseBytes  int
	DeltaBytes int
	// Deltas counts the complete delta frames.
	Deltas int
	// LastCRC is the body CRC of the last complete frame — the link the
	// next appended delta must carry.
	LastCRC uint32
	// Torn reports that bytes follow the clean end: a trailing frame
	// torn by a crash mid-append, which the fold dropped.
	Torn bool
}

// ScanChain parses a base frame plus appended delta frames, folds them
// into one checkpoint, and reports the chain's framing (see Chain). On
// top of ScanLog it enforces the chain's own rules: the first frame is
// a complete base, every later one a delta linked to its predecessor.
func ScanChain(data []byte) (*Chain, error) {
	c := &Chain{}
	end, torn, err := ScanLog(data, chainMagics, func(f Frame) error {
		if c.Checkpoint == nil {
			if f.Magic != magicBase {
				return fmt.Errorf("%w: not a %s file (magic %q)", ckpt.ErrSchema, Schema, f.Magic.Tag)
			}
			ck, err := decodeCheckpointBody(f.Body)
			if err != nil {
				return err
			}
			c.Checkpoint, c.BaseBytes, c.LastCRC = ck, int(f.Next), f.CRC
			return nil
		}
		if f.Magic != magicDelta {
			return fmt.Errorf("%w: expected a delta frame, found magic %q", ckpt.ErrSchema, f.Magic.Tag)
		}
		if f.Link != c.LastCRC {
			return fmt.Errorf("%w: delta frame links to a different predecessor (chain spliced?)", ckpt.ErrChecksum)
		}
		d, err := decodeDeltaBody(f.Body, &c.Checkpoint.State)
		if err != nil {
			return err
		}
		if err := ApplyDelta(c.Checkpoint, d); err != nil {
			return err
		}
		c.LastCRC = f.CRC
		c.Deltas++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.Checkpoint == nil {
		return nil, fmt.Errorf("%w: base frame extends past end of file", ckpt.ErrTruncated)
	}
	c.DeltaBytes = int(end) - c.BaseBytes
	c.Torn = torn
	return c, nil
}
