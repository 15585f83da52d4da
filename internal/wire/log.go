package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"waggle/internal/ckpt"
)

// The one frame discipline behind every append-only file in the repo —
// the WCK2/WCD2 checkpoint chain, the WST1 movement stream and the
// queen's journal. Each frame is
//
//	magic(4) | uvarint(len(body)) | crc32(body) LE32 | [link LE32] | body
//
// where the link word is present only for magics that declare one (the
// WCD2 delta's prevCRC), and the body is never empty (every format's
// body opens with content of its own). A file has exactly one writer,
// and each frame reaches it in a single write(2), so a crash mid-append
// can only leave a *prefix* of the final frame behind. ScanLog reports
// such a prefix as a torn tail; anything else — a magic no caller
// accepts (including a short tail that is not a prefix of one), a
// complete frame whose body fails its CRC, an overflowing or zero
// length — cannot be a crash artifact and is a typed error. Log reopens a file at the clean end a
// scan found, truncating the torn tail before its first append.

// magicLen is the size of every frame magic.
const magicLen = 4

// Magic is one frame kind: its four tag bytes, and whether its header
// carries a link word after the CRC.
type Magic struct {
	Tag    string
	Linked bool
}

// Frame is one complete, CRC-valid frame found by ScanLog.
type Frame struct {
	Magic Magic
	// Off and Next are the frame's byte bounds in the scanned data.
	Off, Next int64
	// CRC is the body's CRC32; Link the header's link word (0 for an
	// unlinked magic).
	CRC, Link uint32
	Body      []byte
}

// EncodeFrame frames body under m, carrying link when m is Linked, and
// returns the frame plus the body CRC.
func EncodeFrame(m Magic, link uint32, body []byte) ([]byte, uint32) {
	crc := crc32.ChecksumIEEE(body)
	frame := make([]byte, 0, magicLen+binary.MaxVarintLen64+8+len(body))
	frame = append(frame, m.Tag...)
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc)
	if m.Linked {
		frame = binary.LittleEndian.AppendUint32(frame, link)
	}
	return append(frame, body...), crc
}

// ScanLog walks the frames of data from the start, calling fn once per
// complete, CRC-valid frame whose magic is one of magics. It returns
// the clean end — the offset just past the last complete frame — with
// torn=true when a cut final frame follows it. Corruption is a typed
// error: a wrong magic is ckpt.ErrSchema, a CRC mismatch on a complete
// frame ckpt.ErrChecksum, a malformed or zero length ckpt.ErrTruncated.
// An error from fn stops the scan and is returned as is; end is then
// the offset of the frame fn refused.
func ScanLog(data []byte, magics []Magic, fn func(Frame) error) (end int64, torn bool, err error) {
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		m, ok := matchMagic(rest, magics)
		if !ok {
			if len(rest) < magicLen && prefixesMagic(rest, magics) {
				return off, true, nil // torn mid-magic
			}
			return off, false, fmt.Errorf("%w: bad frame magic %q at offset %d", ckpt.ErrSchema, rest[:min(len(rest), magicLen)], off)
		}
		hdr := rest[magicLen:]
		bodyLen, n := binary.Uvarint(hdr)
		if n == 0 {
			return off, true, nil // torn mid-length
		}
		if n < 0 || bodyLen == 0 {
			return off, false, fmt.Errorf("%w: malformed frame length at offset %d", ckpt.ErrTruncated, off)
		}
		hdr = hdr[n:]
		words := 4
		if m.Linked {
			words = 8
		}
		if len(hdr) < words {
			return off, true, nil // torn mid-CRC or mid-link
		}
		f := Frame{Magic: m, Off: off, CRC: binary.LittleEndian.Uint32(hdr)}
		if m.Linked {
			f.Link = binary.LittleEndian.Uint32(hdr[4:])
		}
		hdr = hdr[words:]
		if uint64(len(hdr)) < bodyLen {
			return off, true, nil // torn mid-body
		}
		f.Body = hdr[:bodyLen]
		if crc32.ChecksumIEEE(f.Body) != f.CRC {
			return off, false, fmt.Errorf("%w: frame at offset %d does not match its CRC32", ckpt.ErrChecksum, off)
		}
		f.Next = off + int64(len(rest)-len(hdr)) + int64(bodyLen)
		if err := fn(f); err != nil {
			return off, false, err
		}
		off = f.Next
	}
	return off, false, nil
}

func matchMagic(data []byte, magics []Magic) (Magic, bool) {
	if len(data) >= magicLen {
		for _, m := range magics {
			if string(data[:magicLen]) == m.Tag {
				return m, true
			}
		}
	}
	return Magic{}, false
}

func prefixesMagic(data []byte, magics []Magic) bool {
	for _, m := range magics {
		if bytes.HasPrefix([]byte(m.Tag), data) {
			return true
		}
	}
	return false
}

// Log appends frames to one file. It is not safe for concurrent use.
type Log struct {
	f         *os.File
	off       int64
	syncEvery int
	sinceSync int
}

// OpenLog opens path for appending at end, the clean end a ScanLog of
// the file found (0 for a new file). The file is created when absent,
// and anything past end — a torn tail — is truncated. Every syncEvery
// appends are followed by an fsync (<= 1: every append).
func OpenLog(path string, end int64, syncEvery int) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wire: open log: %w", err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() < end {
		err = fmt.Errorf("%s is %d bytes, shorter than its clean end %d", path, st.Size(), end)
	}
	if err == nil && st.Size() > end {
		err = f.Truncate(end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wire: open log: %w", err)
	}
	return &Log{f: f, off: end, syncEvery: max(syncEvery, 1)}, nil
}

// Append writes one encoded frame with a single write(2) — a tailing
// reader or a post-crash scan never sees an interleaved frame, only a
// clean prefix plus at most one torn tail — and fsyncs when the sync
// cadence is due.
func (l *Log) Append(frame []byte) error {
	if l.f == nil {
		return fmt.Errorf("wire: append to a closed log")
	}
	if _, err := l.f.WriteAt(frame, l.off); err != nil {
		return fmt.Errorf("wire: log append: %w", err)
	}
	l.off += int64(len(frame))
	l.sinceSync++
	if l.sinceSync >= l.syncEvery {
		return l.Sync()
	}
	return nil
}

// Offset reports the byte offset past the last appended frame.
func (l *Log) Offset() int64 { return l.off }

// Sync forces the batched fsync.
func (l *Log) Sync() error {
	l.sinceSync = 0
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wire: log sync: %w", err)
	}
	return nil
}

// Close fsyncs any appends the cadence has not yet covered and closes
// the file. Closing a closed log is a no-op.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var err error
	if l.sinceSync > 0 {
		err = l.Sync()
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wire: log close: %w", cerr)
	}
	l.f = nil
	return err
}
