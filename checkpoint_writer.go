package waggle

import (
	"fmt"
	"os"
	"reflect"
	"sort"

	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// CheckpointCodec selects how checkpoints are serialized. The zero
// value is the JSON envelope, so existing callers are unchanged.
type CheckpointCodec int

const (
	// CodecJSON is the human-readable "waggle-ckpt/v1" envelope — the
	// debugging and backward-compatibility format.
	CodecJSON CheckpointCodec = iota
	// CodecBinary is the compact "waggle-ckpt/v2" binary format: full
	// snapshots an order of magnitude smaller than JSON.
	CodecBinary
	// CodecDelta is binary plus delta chains: a periodic writer appends
	// per-interval deltas (only the robots whose state changed) to a
	// binary base snapshot, rebasing when the chain grows long or the
	// world churns. Single-shot saves degrade to CodecBinary.
	CodecDelta
)

// String returns the codec's CLI name ("json", "binary", "delta").
func (c CheckpointCodec) String() string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecBinary:
		return "binary"
	case CodecDelta:
		return "delta"
	}
	return fmt.Sprintf("CheckpointCodec(%d)", int(c))
}

// ParseCheckpointCodec maps a CLI name to its codec.
func ParseCheckpointCodec(name string) (CheckpointCodec, error) {
	switch name {
	case "", "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	case "delta":
		return CodecDelta, nil
	}
	return 0, fmt.Errorf("waggle: unknown checkpoint codec %q (want json, binary, or delta)", name)
}

// Rebase thresholds for CodecDelta. A new base is written once the
// delta bytes since the base, plus the next frame, would exceed the
// base frame's bytes — past that point the chain costs more to read and
// fold than a rewrite would — but never on bytes while the deltas fit
// in rebaseMinBytes: a file that small is read in one page either way,
// and a base rewrite's fixed create+fsync+rename cost dominates it.
// maxChainLen caps the frames after one base regardless, bounding
// load-time fold work: ApplyDelta does an O(n) pass over the
// scheduler's idle counters per frame, however small the frame.
const (
	maxChainLen    = 64
	rebaseMinBytes = 4096
)

// endpointSweepMax is the swarm size up to which every delta capture
// simply compares all endpoint observables against the mirror. Above
// it the sparse path (moved robots + recorded senders) is used — valid
// because an endpoint's observables change only during the robot's own
// activation (which moves it, or at least stamps a touch) or a recorded
// send naming it; the messenger and the stabilization wrapper break
// that locality, so swarms using either always sweep.
const endpointSweepMax = 4096

// CheckpointWriter saves a swarm's state to one path repeatedly, as a
// simulation driver's periodic checkpointer. For CodecJSON and
// CodecBinary every Save atomically rewrites the file with a full
// snapshot. For CodecDelta the first Save writes a binary base snapshot
// and subsequent Saves append a delta frame recording only what changed
// since the previous Save — at large n with sparse activation that is
// microseconds and a few hundred bytes instead of an O(n) rewrite. A
// new base is written when the chain reaches maxChainLen deltas or when
// the delta bytes since the base, plus the new frame, would exceed the
// base frame's bytes (and rebaseMinBytes; see the thresholds above).
// The file is readable by LoadCheckpoint at every moment: after a base,
// after any delta, and (thanks to the append being a single write and
// torn trailing frames being dropped on load) even after a crash
// mid-append.
//
// A CodecDelta writer created over an existing v2 chain that folds to
// exactly the swarm's current Checkpoint — the swarm was just restored
// from that file — adopts the chain instead of starting over: its
// first Save appends a delta, so resuming an evicted session costs a
// delta append rather than a full base rewrite. A torn trailing frame
// is truncated away before that first append. Any other file (absent,
// unreadable, another codec, or a different state) is left alone until
// the first Save replaces it with a base.
type CheckpointWriter struct {
	s     *Swarm
	path  string
	codec CheckpointCodec

	// Delta-chain state: the folded image of what the file holds, the
	// body CRC of its last frame, the chain length, the base frame's
	// bytes and the delta bytes after it, the clean end to truncate a
	// torn adopted tail to (-1: nothing to truncate), the world clock
	// and recorder length at the previous save, and reusable scratch.
	mirror     *Checkpoint
	prevCRC    uint32
	chainLen   int
	baseBytes  int
	deltaBytes int
	truncateAt int64
	sinceTime  int
	prevRecLen int
	sweepEps   bool
	touched    []int
	lastBytes  int
	lastDelta  bool
}

// NewCheckpointWriter returns a periodic checkpointer for the swarm,
// writing to path. With no explicit codec it uses the swarm's
// WithCheckpointCodec preference (default CodecJSON). CodecDelta
// enables position-touch tracking on the world, so the writer should be
// created before the run it will checkpoint, and adopts an existing
// chain at path that matches the swarm (see CheckpointWriter).
func (s *Swarm) NewCheckpointWriter(path string, codec ...CheckpointCodec) (*CheckpointWriter, error) {
	c := s.opts.ckptCodec
	switch len(codec) {
	case 0:
	case 1:
		c = codec[0]
	default:
		return nil, fmt.Errorf("waggle: NewCheckpointWriter takes at most one codec, got %d", len(codec))
	}
	switch c {
	case CodecJSON, CodecBinary, CodecDelta:
	default:
		return nil, fmt.Errorf("waggle: unknown checkpoint codec %d", int(c))
	}
	cw := &CheckpointWriter{s: s, path: path, codec: c, truncateAt: -1}
	if c == CodecDelta {
		s.net.World().EnableTouchTracking()
		cw.sweepEps = s.messenger != nil || s.opts.stabilizeEpoch > 0 || s.n <= endpointSweepMax
		if err := cw.adoptChain(); err != nil {
			return nil, err
		}
	}
	return cw, nil
}

// adoptChain continues the v2 chain already at the writer's path when
// it folds to exactly the swarm's current checkpoint — the same deep
// equality Restore verifies. Anything else is left for the first Save
// to replace with a base.
func (cw *CheckpointWriter) adoptChain() error {
	data, err := os.ReadFile(cw.path)
	if err != nil {
		return nil
	}
	ch, err := wire.ScanChain(data)
	if err != nil {
		return nil
	}
	ck, err := cw.s.Checkpoint()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ch.Checkpoint, ck) {
		return nil
	}
	cw.mirror = ch.Checkpoint
	cw.prevCRC = ch.LastCRC
	cw.chainLen = ch.Deltas
	cw.baseBytes = ch.BaseBytes
	cw.deltaBytes = ch.DeltaBytes
	if ch.Torn {
		cw.truncateAt = int64(ch.BaseBytes + ch.DeltaBytes)
	}
	cw.sinceTime = cw.s.net.World().Time()
	cw.prevRecLen = cw.s.rec.Len()
	return nil
}

// Codec returns the writer's serialization format.
func (cw *CheckpointWriter) Codec() CheckpointCodec { return cw.codec }

// Path returns the file the writer saves to.
func (cw *CheckpointWriter) Path() string { return cw.path }

// ChainLen returns how many delta frames follow the current base (0
// right after a base save, and always 0 for non-delta codecs).
func (cw *CheckpointWriter) ChainLen() int { return cw.chainLen }

// LastSaveBytes returns how many bytes the most recent Save wrote: the
// whole file for a full snapshot, just the appended frame for a delta.
func (cw *CheckpointWriter) LastSaveBytes() int { return cw.lastBytes }

// LastSaveWasDelta reports whether the most recent Save appended a
// delta frame rather than rewriting a full snapshot.
func (cw *CheckpointWriter) LastSaveWasDelta() bool { return cw.lastDelta }

// Save checkpoints the swarm's current state to the writer's path.
func (cw *CheckpointWriter) Save() error {
	if cw.codec != CodecDelta {
		ck, err := cw.s.Checkpoint()
		if err != nil {
			return err
		}
		if err := SaveCheckpoint(cw.path, ck, cw.codec); err != nil {
			return err
		}
		cw.lastBytes = cw.fileSize()
		cw.lastDelta = false
		return nil
	}
	if cw.mirror == nil || cw.configDrifted() || cw.chainLen >= maxChainLen {
		return cw.saveBase()
	}
	d, err := cw.captureDelta()
	if err != nil {
		return err
	}
	frame, crc, err := wire.EncodeDeltaFrame(d, &cw.mirror.State, cw.prevCRC)
	if err != nil {
		return err
	}
	if cw.deltaBytes+len(frame) > max(cw.baseBytes, rebaseMinBytes) {
		return cw.saveBase()
	}
	if err := appendDurably(cw.path, frame, cw.truncateAt); err != nil {
		return err
	}
	cw.truncateAt = -1
	if err := wire.ApplyDelta(cw.mirror, d); err != nil {
		// The frame is already on disk but matches the mirror state it
		// was encoded against; an apply failure here means the delta
		// itself is malformed, which a load would reject too.
		return err
	}
	cw.prevCRC = crc
	cw.chainLen++
	cw.deltaBytes += len(frame)
	cw.noteSaved(len(frame), true)
	return nil
}

// saveBase writes a fresh binary base snapshot atomically and resets
// the chain.
func (cw *CheckpointWriter) saveBase() error {
	ck, err := cw.s.Checkpoint()
	if err != nil {
		return err
	}
	frame, crc, err := wire.EncodeBaseFrame(ck)
	if err != nil {
		return err
	}
	if err := ckpt.WriteFileAtomic(cw.path, frame); err != nil {
		return err
	}
	cw.mirror = ck
	cw.prevCRC = crc
	cw.chainLen = 0
	cw.baseBytes = len(frame)
	cw.deltaBytes = 0
	cw.truncateAt = -1
	cw.noteSaved(len(frame), false)
	return nil
}

// noteSaved records the bookkeeping every successful save shares: the
// world clock and recorder length the next delta will diff against.
func (cw *CheckpointWriter) noteSaved(bytes int, delta bool) {
	cw.sinceTime = cw.s.net.World().Time()
	cw.prevRecLen = cw.s.rec.Len()
	cw.lastBytes = bytes
	cw.lastDelta = delta
}

// configDrifted reports whether the swarm's construction recipe changed
// since the base snapshot — a radio or messenger coupled mid-run — in
// which case the base must be rewritten (deltas carry state, not
// config). Positions and options are immutable after construction, so
// only the cheap coupling fields are checked.
func (cw *CheckpointWriter) configDrifted() bool {
	cfg := &cw.mirror.Config
	if cfg.Messenger != (cw.s.messenger != nil) {
		return true
	}
	if (cfg.Radio == nil) != (cw.s.radio == nil) {
		return true
	}
	if cfg.Radio != nil && (cfg.Radio.N != cw.s.radio.n || cfg.Radio.Seed != cw.s.radio.seed) {
		return true
	}
	return false
}

// captureDelta builds the delta from the previous save's mirror to the
// swarm's current state without materializing a full snapshot: cost is
// proportional to what changed (plus one pass over the scheduler's
// idle counters when the scheduler is randomized), not to n.
func (cw *CheckpointWriter) captureDelta() (*wire.Delta, error) {
	s := cw.s
	w := s.net.World()
	mirror := &cw.mirror.State
	d := &wire.Delta{
		Time:     w.Time(),
		Consumed: s.net.Consumed(),
	}
	var idle []int
	d.SchedulerDraws, idle = schedulerStateRef(s.net.Scheduler())

	// Positions: only robots stamped by the touch tracker since the
	// previous save, value-diffed against the mirror (the stamp set may
	// be a superset of the robots that actually ended up elsewhere).
	cw.touched = w.AppendTouchedSince(cw.sinceTime, cw.touched[:0])
	for _, i := range cw.touched {
		p := w.Position(i)
		xy := ckpt.XY{X: p.X, Y: p.Y}
		if xy != mirror.Positions[i] {
			d.PosChanged = append(d.PosChanged, wire.PosChange{Index: i, Pos: xy})
		}
	}

	// Input log tail: the recorder only appends entries or grows the
	// last entry's run-length count, so everything before the previous
	// save's final entry is immutable.
	tailStart := cw.prevRecLen - 1
	if tailStart < 0 {
		tailStart = 0
	}
	d.InputTailStart = tailStart
	d.InputTail = s.rec.OpsSince(tailStart)

	// Endpoint observables. The sparse candidate set is the touched
	// robots (observables change during a robot's own activation, which
	// also moves it) plus every sender named in the new input entries.
	if cw.sweepEps {
		for i := 0; i < s.n; i++ {
			ep := s.net.Endpoint(i)
			es := ckpt.EndpointState{Pending: ep.PendingMessages(), Idle: ep.Idle(), SentBits: ep.SentBits()}
			if es != mirror.Endpoints[i] {
				d.EndpointChanged = append(d.EndpointChanged, wire.EndpointChange{Index: i, State: es})
			}
		}
	} else {
		cand := append([]int(nil), cw.touched...)
		for _, in := range d.InputTail {
			switch in.Op {
			case ckpt.OpSend, ckpt.OpBroadcast, ckpt.OpSendAll:
				if in.From >= 0 && in.From < s.n {
					cand = append(cand, in.From)
				}
			}
		}
		sort.Ints(cand)
		prev := -1
		for _, i := range cand {
			if i == prev {
				continue
			}
			prev = i
			ep := s.net.Endpoint(i)
			es := ckpt.EndpointState{Pending: ep.PendingMessages(), Idle: ep.Idle(), SentBits: ep.SentBits()}
			if es != mirror.Endpoints[i] {
				d.EndpointChanged = append(d.EndpointChanged, wire.EndpointChange{Index: i, State: es})
			}
		}
	}

	// Delivery log: append-only, so just the new suffix.
	d.DeliveredTail = messagesToState(s.net.DeliveredSince(len(mirror.Delivered)))

	if idle != nil {
		d.HasIdle = true
		d.IdleLen = len(idle)
		d.IdleShift, d.IdleOverrides = wire.DiffIdle(mirror.SchedulerIdle, idle)
	}

	// Subsystem snapshots are small relative to the swarm: recapture
	// whole, carry only if changed.
	if s.radio != nil || mirror.Radio != nil {
		var rs *ckpt.RadioState
		if s.radio != nil {
			rs = radioState(s.radio.inner.Snapshot())
		}
		if !reflect.DeepEqual(rs, mirror.Radio) {
			d.RadioChanged = true
			d.Radio = rs
		}
	}
	if s.messenger != nil || mirror.Messenger != nil {
		var ms *ckpt.MessengerState
		if s.messenger != nil {
			ms = messengerState(s.messenger.inner.Snapshot())
		}
		if !reflect.DeepEqual(ms, mirror.Messenger) {
			d.MessengerChanged = true
			d.Messenger = ms
		}
	}
	if fs := s.faultState(); !reflect.DeepEqual(fs, mirror.Fault) {
		d.FaultChanged = true
		d.Fault = fs
	}

	var err error
	if d.TraceDigest, err = s.traceDigest(); err != nil {
		return nil, err
	}
	if d.ObsDigest, err = s.obsDigest(); err != nil {
		return nil, err
	}
	return d, nil
}

// fileSize returns the current size of the writer's file (0 on error;
// informational only).
func (cw *CheckpointWriter) fileSize() int {
	fi, err := os.Stat(cw.path)
	if err != nil {
		return 0
	}
	return int(fi.Size())
}

// appendDurably appends one frame to the file with a single write and
// fsyncs it, first truncating the file to truncateAt when that is not
// negative (dropping a torn tail left by an earlier crash). A crash can
// only tear the trailing frame, which the chain loader drops — the file
// never stops being loadable.
func appendDurably(path string, frame []byte, truncateAt int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("waggle: open checkpoint for append: %w", err)
	}
	if truncateAt >= 0 {
		if err := f.Truncate(truncateAt); err != nil {
			f.Close()
			return fmt.Errorf("waggle: truncate torn checkpoint tail: %w", err)
		}
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("waggle: append checkpoint delta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("waggle: sync checkpoint delta: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("waggle: close checkpoint: %w", err)
	}
	return nil
}
