package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"waggle/internal/ckpt"
)

// Frame layout. A v2 checkpoint file is one base frame followed by zero
// or more delta frames, each:
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
// Only a *trailing* delta frame may be torn (header or body extending
// past EOF): that is the signature of a crash during an append, and the
// chain loads as of the last complete frame — matching the atomicity
// the v1 rename-based save promises. A torn base frame, or corruption
// anywhere else, is a typed error.

// EncodeBaseFrame serializes a checkpoint as one base frame and returns
// the frame plus the body CRC (the prevCRC for the first appended
// delta).
func EncodeBaseFrame(ck *ckpt.Checkpoint) ([]byte, uint32, error) {
	body, err := encodeCheckpointBody(ck)
	if err != nil {
		return nil, 0, err
	}
	crc := crc32.ChecksumIEEE(body)
	frame := make([]byte, 0, len(magicBase)+binary.MaxVarintLen64+4+len(body))
	frame = append(frame, magicBase...)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	frame = append(frame, body...)
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
	crc := crc32.ChecksumIEEE(body)
	frame := make([]byte, 0, len(magicDelta)+binary.MaxVarintLen64+8+len(body))
	frame = append(frame, magicDelta...)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	frame = binary.LittleEndian.AppendUint32(frame, prevCRC)
	frame = append(frame, body...)
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
// into one checkpoint, and reports the chain's framing (see Chain).
func ScanChain(data []byte) (*Chain, error) {
	if len(data) < len(magicBase) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the v2 magic", ckpt.ErrTruncated, len(data))
	}
	if !Detect(data) {
		return nil, fmt.Errorf("%w: not a %s file (magic %q)", ckpt.ErrSchema, Schema, data[:len(magicBase)])
	}
	rest := data[len(magicBase):]
	body, tail, ok := splitFrameBody(rest)
	if !ok {
		return nil, fmt.Errorf("%w: base frame extends past end of file", ckpt.ErrTruncated)
	}
	storedCRC := binary.LittleEndian.Uint32(tailCRC(rest))
	if crc32.ChecksumIEEE(body) != storedCRC {
		return nil, fmt.Errorf("%w: base frame body does not match its CRC32", ckpt.ErrChecksum)
	}
	ck, err := decodeCheckpointBody(body)
	if err != nil {
		return nil, err
	}
	c := &Chain{Checkpoint: ck, BaseBytes: len(data) - len(tail), LastCRC: storedCRC}
	for len(tail) > 0 {
		if len(tail) < len(magicDelta) {
			break // torn trailing append, shorter than a magic
		}
		if string(tail[:len(magicDelta)]) != string(magicDelta) {
			return nil, fmt.Errorf("%w: expected a delta frame, found magic %q", ckpt.ErrSchema, tail[:len(magicDelta)])
		}
		rest := tail[len(magicDelta):]
		bodyLen, n := binary.Uvarint(rest)
		if n == 0 {
			break // torn mid-header
		}
		if n < 0 {
			return nil, fmt.Errorf("%w: malformed delta frame length", ckpt.ErrTruncated)
		}
		rest = rest[n:]
		if len(rest) < 8 {
			break // torn mid-header
		}
		bodyCRC := binary.LittleEndian.Uint32(rest[:4])
		linkCRC := binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if uint64(len(rest)) < bodyLen {
			break // torn mid-body: load as of the last complete frame
		}
		body := rest[:bodyLen]
		if crc32.ChecksumIEEE(body) != bodyCRC {
			return nil, fmt.Errorf("%w: delta frame body does not match its CRC32", ckpt.ErrChecksum)
		}
		if linkCRC != c.LastCRC {
			return nil, fmt.Errorf("%w: delta frame links to a different predecessor (chain spliced?)", ckpt.ErrChecksum)
		}
		d, err := decodeDeltaBody(body, &ck.State)
		if err != nil {
			return nil, err
		}
		if err := ApplyDelta(ck, d); err != nil {
			return nil, err
		}
		c.LastCRC = bodyCRC
		c.Deltas++
		tail = rest[bodyLen:]
	}
	c.DeltaBytes = len(data) - len(tail) - c.BaseBytes
	c.Torn = len(tail) > 0
	return c, nil
}

// splitFrameBody parses "uvarint(len) | crc 4B | body" and returns the
// body and whatever follows it. ok is false when the declared body (or
// the header itself) extends past the end of the data.
func splitFrameBody(data []byte) (body, tail []byte, ok bool) {
	bodyLen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, false
	}
	rest := data[n:]
	if len(rest) < 4 {
		return nil, nil, false
	}
	rest = rest[4:]
	if uint64(len(rest)) < bodyLen {
		return nil, nil, false
	}
	return rest[:bodyLen], rest[bodyLen:], true
}

// tailCRC returns the 4 CRC bytes of a frame's header (after the
// length varint). Callers have already validated the layout via
// splitFrameBody.
func tailCRC(data []byte) []byte {
	_, n := binary.Uvarint(data)
	return data[n : n+4]
}
