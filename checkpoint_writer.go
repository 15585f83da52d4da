package waggle

import (
	"fmt"
	"os"
	"reflect"
	"sort"

	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// CheckpointCodec names the checkpoint write format. There is one:
// every save writes "waggle-ckpt/v2", and a CheckpointWriter always
// keeps a base+delta chain. The type and its single constant remain
// only so callers written against the old codec choice — the perfbench
// harness passes CodecDelta to NewCheckpointWriter — keep compiling;
// the argument is accepted and ignored.
type CheckpointCodec int

// CodecDelta is the v2 base+delta chain every CheckpointWriter writes.
const CodecDelta CheckpointCodec = 0

// Rebase thresholds for the delta chain. A new base is written once the
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
// simulation driver's periodic checkpointer. The first Save writes a
// v2 base snapshot and subsequent Saves append a delta frame recording
// only what changed since the previous Save — at large n with sparse
// activation that is microseconds and a few hundred bytes instead of
// an O(n) rewrite. A new base is written when the chain reaches
// maxChainLen deltas or when the delta bytes since the base, plus the
// new frame, would exceed the base frame's bytes (and rebaseMinBytes;
// see the thresholds above). The file is readable by LoadCheckpoint at
// every moment: after a base, after any delta, and (thanks to the
// append being a single write and torn trailing frames being dropped
// on load) even after a crash mid-append.
//
// A writer created over an existing v2 chain that folds to exactly the
// swarm's current Checkpoint — the swarm was just restored from that
// file — adopts the chain instead of starting over: its first Save
// appends a delta, so resuming an evicted session costs a delta append
// rather than a full base rewrite. A torn trailing frame is truncated
// away before that first append. Any other file (absent, unreadable,
// a v1 dump, or a different state) is left alone until the first Save
// replaces it with a base.
type CheckpointWriter struct {
	s    *Swarm
	path string

	// Delta-chain state: the folded image of what the file holds, the
	// body CRC of its last frame, the chain length, the base frame's
	// bytes and the delta bytes after it (their sum is the clean end
	// the next delta is appended at), the world clock and recorder
	// length at the previous save, and reusable scratch.
	mirror     *Checkpoint
	prevCRC    uint32
	chainLen   int
	baseBytes  int
	deltaBytes int
	sinceTime  int
	prevRecLen int
	sweepEps   bool
	touched    []int
	lastBytes  int
	lastDelta  bool
}

// NewCheckpointWriter returns a periodic checkpointer for the swarm,
// writing to path. It enables position-touch tracking on the world, so
// the writer should be created before the run it will checkpoint, and
// adopts an existing chain at path that matches the swarm (see
// CheckpointWriter). A codec argument is ignored (see CheckpointCodec).
func (s *Swarm) NewCheckpointWriter(path string, _ ...CheckpointCodec) (*CheckpointWriter, error) {
	s.net.World().EnableTouchTracking()
	cw := &CheckpointWriter{
		s:        s,
		path:     path,
		sweepEps: s.messenger != nil || s.opts.stabilizeEpoch > 0 || s.n <= endpointSweepMax,
	}
	if err := cw.adoptChain(); err != nil {
		return nil, err
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
	cw.sinceTime = cw.s.net.World().Time()
	cw.prevRecLen = cw.s.rec.Len()
	return nil
}

// Path returns the file the writer saves to.
func (cw *CheckpointWriter) Path() string { return cw.path }

// ChainLen returns how many delta frames follow the current base (0
// right after a base save).
func (cw *CheckpointWriter) ChainLen() int { return cw.chainLen }

// LastSaveBytes returns how many bytes the most recent Save wrote: the
// whole file for a full snapshot, just the appended frame for a delta.
func (cw *CheckpointWriter) LastSaveBytes() int { return cw.lastBytes }

// LastSaveWasDelta reports whether the most recent Save appended a
// delta frame rather than rewriting a full snapshot.
func (cw *CheckpointWriter) LastSaveWasDelta() bool { return cw.lastDelta }

// Save checkpoints the swarm's current state to the writer's path.
func (cw *CheckpointWriter) Save() error {
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
	if err := cw.appendDelta(frame); err != nil {
		return err
	}
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

// appendDelta appends one delta frame at the chain's clean end with a
// single write and fsyncs it. Opening the log there truncates a torn
// tail left by an earlier crash (an adopted chain's); a crash now can
// only tear this trailing frame, which the chain loader drops — the
// file never stops being loadable. The log is closed again, so a
// writer holds no descriptor between saves.
func (cw *CheckpointWriter) appendDelta(frame []byte) error {
	log, err := wire.OpenLog(cw.path, int64(cw.baseBytes+cw.deltaBytes), 1)
	if err != nil {
		return fmt.Errorf("waggle: append checkpoint delta: %w", err)
	}
	err = log.Append(frame)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("waggle: append checkpoint delta: %w", err)
	}
	return nil
}
