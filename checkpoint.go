package waggle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"

	"waggle/internal/ckpt"
	"waggle/internal/core"
	"waggle/internal/fault"
	"waggle/internal/protocol"
	"waggle/internal/sim"
	"waggle/internal/wire"
)

// Checkpoint is a versioned, resumable image of a run (saved as
// "waggle-ckpt/v2", dumped as "waggle-ckpt/v1" JSON): the swarm's
// construction recipe, the ordered log of every state-mutating API
// call since construction, and a schema-stable snapshot of the
// externally observable state at capture time.
//
// Restore rebuilds the swarm from the recipe and replays the log — the
// execution is deterministic, so the replay reproduces every private
// behavior and endpoint state bit-for-bit — then re-captures the
// snapshot and requires deep equality with the stored one. A resumed
// run is byte-identical (positions, traces, obs snapshots) to the
// uninterrupted run, under EngineSequential and EngineParallel alike.
type Checkpoint = ckpt.Checkpoint

// Checkpoint file-format errors, re-exported for callers that handle
// damaged or incompatible files distinctly.
var (
	// ErrCheckpointSchema marks a checkpoint written by an
	// incompatible format version.
	ErrCheckpointSchema = ckpt.ErrSchema
	// ErrCheckpointChecksum marks a checkpoint whose body fails its
	// CRC32 (corruption).
	ErrCheckpointChecksum = ckpt.ErrChecksum
	// ErrCheckpointTruncated marks a checkpoint that does not parse.
	ErrCheckpointTruncated = ckpt.ErrTruncated
	// ErrRestoreMismatch is returned when the state reached by
	// replaying a checkpoint's input log diverges from the state
	// snapshot stored in it — a corrupt file, or a build whose
	// execution semantics drifted from the one that saved it.
	ErrRestoreMismatch = errors.New("waggle: restored state diverges from checkpoint snapshot")
	// ErrRestoreConfig is returned by WithRestore when the positions
	// and options passed to NewSwarm do not describe the checkpointed
	// swarm.
	ErrRestoreConfig = errors.New("waggle: checkpoint config does not match the swarm being built")
)

// SaveCheckpoint writes ck to path atomically (temp file + fsync +
// rename + directory fsync) as one "waggle-ckpt/v2" base frame — the
// compact, CRC32-checksummed binary format every checkpoint save
// writes. A periodic saver wants Swarm.NewCheckpointWriter instead,
// which appends delta frames to that base.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	data, err := wire.Encode(ck)
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, data)
}

// LoadCheckpoint reads and validates the checkpoint at path: a v2
// base snapshot or base+delta chain (folded into one checkpoint), or a
// v1 JSON envelope. Failure modes are typed: ErrCheckpointSchema,
// ErrCheckpointChecksum, ErrCheckpointTruncated.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read %s: %w", path, err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ck, nil
}

// WriteCheckpoint dumps ck to w as the human-readable "waggle-ckpt/v1"
// JSON envelope: the debugging view of any checkpoint, which
// ReadCheckpoint and LoadCheckpoint read back. It is not crash-safe
// and not what saves write; SaveCheckpoint is.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	data, err := ckpt.Encode(ck)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("ckpt: write: %w", err)
	}
	return nil
}

// ReadCheckpoint reads and validates a checkpoint in any format
// LoadCheckpoint accepts from r.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return decodeCheckpoint(data)
}

// decodeCheckpoint is the one place that decides which format bytes
// are in: anything starting with the v2 base magic goes to the binary
// chain reader, everything else to the v1 envelope reader.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if wire.Detect(data) {
		return wire.Decode(data)
	}
	return ckpt.Decode(data)
}

// Checkpoint captures a resumable image of the swarm — and of its
// coupled Radio and BackupMessenger, if any — at the current instant.
//
// What is captured: construction config (positions, options, radio
// seed, observer capacity), the ordered input log since construction,
// and the observable state (positions, time, delivery queues and
// cursor, scheduler and radio RNG stream positions, messenger retry
// and failover state, fault-plan window cursor, trace and
// deterministic-obs digests).
//
// What is not: wall-clock-derived observability metrics (marked
// volatile, excluded from DeterministicSnapshot), drained Overheard
// logs, and any Radio that was never coupled to this swarm via
// WithFaultRadio or NewBackupMessenger.
func (s *Swarm) Checkpoint() (*Checkpoint, error) {
	state, err := s.captureState()
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Config: s.ckptConfig(),
		Inputs: s.rec.Ops(),
		State:  state,
	}, nil
}

// Restored bundles everything a full Restore rebuilds.
type Restored struct {
	Swarm *Swarm
	// Radio is the rebuilt coupled radio, nil when the checkpoint had
	// none. Messenger likewise.
	Radio     *Radio
	Messenger *BackupMessenger
	// Observer is the rebuilt observer, nil when the checkpoint had
	// none. Its deterministic metrics and trace match the capture-time
	// observer; volatile (wall-clock) metrics restart from zero.
	Observer *Observer
}

// RestoreOption adjusts how a checkpoint is restored.
type RestoreOption func(*restoreOptions)

type restoreOptions struct {
	engine    EngineMode
	setEngine bool
}

// RestoreWithEngine restores under the given engine mode instead of
// the checkpointed one. Sound because the engine never changes the
// computed execution — a checkpoint saved under EngineSequential
// resumes byte-identically under EngineParallel and vice versa.
func RestoreWithEngine(mode EngineMode) RestoreOption {
	return func(ro *restoreOptions) { ro.engine = mode; ro.setEngine = true }
}

// Restore rebuilds a swarm (and its coupled radio, messenger, and
// observer) from a checkpoint and resumes it at the checkpointed
// instant. The replayed state is verified against the checkpoint's
// snapshot; divergence fails with ErrRestoreMismatch rather than
// resuming a different run.
func Restore(ck *Checkpoint, ropts ...RestoreOption) (*Restored, error) {
	if ck == nil {
		return nil, errors.New("waggle: nil checkpoint")
	}
	var ro restoreOptions
	for _, opt := range ropts {
		opt(&ro)
	}
	o := optionsFromCkpt(ck.Config.Options)
	positions := pointsFromXY(ck.Config.Positions)
	if ro.setEngine {
		o.engine = ro.engine
	}
	res := &Restored{}
	if ck.Config.Observer != nil {
		res.Observer = NewObserverWithCapacity(ck.Config.Observer.TraceCapacity)
		o.observer = res.Observer
	}
	if ck.Config.Radio != nil {
		res.Radio = NewRadio(ck.Config.Radio.N, ck.Config.Radio.Seed)
		if ck.Config.Options.FaultRadio {
			o.faultRadio = res.Radio
		}
	}
	s, err := newSwarm(positions, o)
	if err != nil {
		return nil, err
	}
	res.Swarm = s
	if res.Radio != nil && s.radio == nil {
		// Coupled through the messenger (or checkpointed before any
		// coupling op): register for capture without the fault wiring.
		s.radio = res.Radio
		res.Radio.attachRecorder(s.rec)
	}
	if ck.Config.Messenger {
		if res.Radio == nil {
			return nil, fmt.Errorf("%w: checkpoint couples a messenger but has no radio config", ErrCheckpointTruncated)
		}
		res.Messenger, err = NewBackupMessenger(res.Radio, s)
		if err != nil {
			return nil, err
		}
	}
	if err := s.finishRestore(ck, res.Radio, res.Messenger); err != nil {
		return nil, err
	}
	return res, nil
}

// newSwarmRestored is the WithRestore path of NewSwarm: the caller
// passes the same positions and options the checkpoint was captured
// with (verified; engine mode excepted) plus the checkpoint itself.
// Messenger-coupled checkpoints need the full Restore entry point.
func newSwarmRestored(positions []Point, o options) (*Swarm, error) {
	ck := o.restore
	o.restore = nil
	if ck.Config.Messenger {
		return nil, fmt.Errorf("%w: checkpoint couples a BackupMessenger; restore it with waggle.Restore", ErrRestoreConfig)
	}
	s, err := newSwarm(positions, o)
	if err != nil {
		return nil, err
	}
	got, want := s.ckptConfig(), ck.Config
	// The engine never changes the computed execution, so restoring
	// under a different mode is allowed: compare configs engine-blind.
	got.Options.Engine, want.Options.Engine = 0, 0
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("%w: %s", ErrRestoreConfig, firstConfigDiff(got, want))
	}
	if err := s.finishRestore(ck, s.radio, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// finishRestore replays the checkpoint's input log against a freshly
// built swarm, verifies the reached state against the stored snapshot,
// and seats the log so the resumed swarm keeps recording from genesis.
func (s *Swarm) finishRestore(ck *Checkpoint, radio *Radio, m *BackupMessenger) error {
	if err := replayInputs(s, radio, m, ck.Inputs); err != nil {
		return err
	}
	return s.verifyRestore(ck)
}

// verifyRestore is finishRestore after the replay: re-capture, compare
// with the stored snapshot, seat the log.
func (s *Swarm) verifyRestore(ck *Checkpoint) error {
	got, err := s.captureState()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, ck.State) {
		return fmt.Errorf("%w: %s", ErrRestoreMismatch, firstStateDiff(got, ck.State))
	}
	s.rec.Reset(ck.Inputs)
	return nil
}

// replayInputs re-executes the recorded API calls in order, through
// the internal (non-recording) paths. In-band failures that the
// original run also saw — a jammed radio send, a budget-exhausted run
// — are expected; anything else aborts the restore.
func replayInputs(s *Swarm, r *Radio, m *BackupMessenger, inputs []ckpt.Input) error {
	for i, in := range inputs {
		reps := in.Reps
		if reps <= 0 {
			reps = 1
		}
		for k := 0; k < reps; k++ {
			if err := applyInput(s, r, m, in); err != nil {
				return fmt.Errorf("waggle: replay input %d (%s, t=%d): %w", i, in.Op, in.T, err)
			}
		}
	}
	return nil
}

// benignReplayErr reports errors a recorded call legitimately returned
// in the original run while still mutating state.
func benignReplayErr(err error) bool {
	return errors.Is(err, ErrNotDelivered) || errors.Is(err, ErrRadioFailed)
}

func applyInput(s *Swarm, r *Radio, m *BackupMessenger, in ckpt.Input) error {
	var err error
	switch in.Op {
	case ckpt.OpSend:
		err = s.net.Send(in.From, in.To, in.Payload)
	case ckpt.OpBroadcast:
		err = s.net.Broadcast(in.From, in.Payload)
	case ckpt.OpSendAll:
		err = s.net.SendAll(in.From, in.Payload)
	case ckpt.OpStep:
		err = s.net.Step()
	case ckpt.OpRunDelivered:
		_, _, err = s.net.RunUntilDelivered(in.Count, in.Max)
	case ckpt.OpRunQuiet:
		_, _, err = s.net.RunUntilQuiet(in.Max)
	case ckpt.OpMsgSend, ckpt.OpMsgTick, ckpt.OpMsgStep, ckpt.OpMsgRun, ckpt.OpMsgPolicy:
		if m == nil {
			return fmt.Errorf("messenger op without a coupled messenger")
		}
		switch in.Op {
		case ckpt.OpMsgSend:
			err = m.inner.Send(in.From, in.To, in.Payload)
		case ckpt.OpMsgTick:
			err = m.inner.Tick()
		case ckpt.OpMsgStep:
			err = m.inner.Step()
		case ckpt.OpMsgRun:
			_, err = m.inner.RunUntilSettled(in.Max)
		case ckpt.OpMsgPolicy:
			if in.Policy == nil {
				return fmt.Errorf("policy op without a policy")
			}
			err = m.inner.SetPolicy(core.MessengerPolicy{
				MaxRetries: in.Policy.MaxRetries,
				Backoff:    in.Policy.Backoff,
				Deadline:   in.Policy.Deadline,
				ProbeEvery: in.Policy.ProbeEvery,
			})
		}
	case ckpt.OpRadioBreak, ckpt.OpRadioRepair, ckpt.OpRadioJam, ckpt.OpRadioSend, ckpt.OpRadioRecv:
		if r == nil {
			return fmt.Errorf("radio op without a coupled radio")
		}
		switch in.Op {
		case ckpt.OpRadioBreak:
			err = r.inner.Break(in.From)
		case ckpt.OpRadioRepair:
			err = r.inner.Repair(in.From)
		case ckpt.OpRadioJam:
			err = r.inner.SetJamming(in.P)
		case ckpt.OpRadioSend:
			err = r.inner.Send(in.From, in.To, in.Payload)
		case ckpt.OpRadioRecv:
			r.inner.Receive(in.From)
		}
	default:
		return fmt.Errorf("unknown op %q", in.Op)
	}
	if err != nil && !benignReplayErr(err) {
		return err
	}
	return nil
}

// ckptConfig builds the checkpointed construction recipe of this
// swarm.
func (s *Swarm) ckptConfig() ckpt.Config {
	cfg := ckpt.Config{
		Positions: xyFromPoints(s.initial),
		Options:   ckptOptions(s.opts),
		Messenger: s.messenger != nil,
	}
	if s.radio != nil {
		cfg.Radio = &ckpt.RadioConfig{N: s.radio.n, Seed: s.radio.seed}
	}
	if s.opts.observer != nil {
		cfg.Observer = &ckpt.ObserverConfig{TraceCapacity: s.opts.observer.inner.TraceCapacity()}
	}
	return cfg
}

// ckptOptions maps the resolved option set to its schema form.
func ckptOptions(o options) ckpt.Options {
	co := ckpt.Options{
		Synchronous:      o.synchronous,
		Identified:       o.identified,
		SenseOfDirection: o.senseOfDirection,
		LeftHanded:       o.leftHanded,
		Protocol:         int(o.protocol),
		Levels:           o.levels,
		BoundedSlices:    o.boundedSlices,
		AlternateDrift:   o.alternateDrift,
		Seed:             o.seed,
		Sigma:            o.sigma,
		Trace:            o.trace,
		Scheduler:        int(o.scheduler),
		StarveVictim:     o.starveVictim,
		StarveDelay:      o.starveDelay,
		ActivationProb:   o.activationProb,
		Engine:           int(o.engine),
		StabilizeEpoch:   o.stabilizeEpoch,
		FaultRadio:       o.faultRadio != nil,
	}
	if o.flock != nil {
		co.Flock = &ckpt.XY{X: o.flock.X, Y: o.flock.Y}
	}
	if o.faultPlan != nil {
		co.HasFaultPlan = true
		if len(o.faultPlan.Events) > 0 {
			co.FaultPlan = make([]ckpt.FaultEventConfig, len(o.faultPlan.Events))
			for i, e := range o.faultPlan.Events {
				co.FaultPlan[i] = ckpt.FaultEventConfig{
					Kind: int(e.Kind), At: e.At, Until: e.Until, Robot: e.Robot,
					Mag: e.Mag, Min: e.Min, Max: e.Max, DX: e.DX, DY: e.DY,
				}
			}
		}
	}
	return co
}

// optionsFromCkpt inverts ckptOptions.
func optionsFromCkpt(co ckpt.Options) options {
	o := defaultOptions()
	o.synchronous = co.Synchronous
	o.identified = co.Identified
	o.senseOfDirection = co.SenseOfDirection
	o.leftHanded = co.LeftHanded
	o.protocol = Protocol(co.Protocol)
	o.levels = co.Levels
	o.boundedSlices = co.BoundedSlices
	o.alternateDrift = co.AlternateDrift
	o.seed = co.Seed
	o.sigma = co.Sigma
	o.trace = co.Trace
	o.scheduler = SchedulerKind(co.Scheduler)
	o.starveVictim = co.StarveVictim
	o.starveDelay = co.StarveDelay
	o.activationProb = co.ActivationProb
	o.engine = EngineMode(co.Engine)
	o.stabilizeEpoch = co.StabilizeEpoch
	if co.Flock != nil {
		o.flock = &Point{X: co.Flock.X, Y: co.Flock.Y}
	}
	if co.HasFaultPlan {
		plan := &FaultPlan{}
		for _, e := range co.FaultPlan {
			plan.Events = append(plan.Events, FaultEvent{
				Kind: FaultKind(e.Kind), At: e.At, Until: e.Until, Robot: e.Robot,
				Mag: e.Mag, Min: e.Min, Max: e.Max, DX: e.DX, DY: e.DY,
			})
		}
		o.faultPlan = plan
	}
	return o
}

// captureState snapshots the externally observable state. Empty slices
// are left nil throughout so a capture deep-equals its own JSON round
// trip (the restore verification compares a fresh capture against the
// decoded stored one).
func (s *Swarm) captureState() (ckpt.State, error) {
	w := s.net.World()
	st := ckpt.State{
		Time:      w.Time(),
		Positions: xyFromPoints(s.Positions()),
		Consumed:  s.net.Consumed(),
		Delivered: messagesToState(s.net.Delivered()),
		Endpoints: make([]ckpt.EndpointState, s.n),
	}
	for i := 0; i < s.n; i++ {
		ep := s.net.Endpoint(i)
		st.Endpoints[i] = ckpt.EndpointState{
			Pending:  ep.PendingMessages(),
			Idle:     ep.Idle(),
			SentBits: ep.SentBits(),
		}
	}
	st.SchedulerDraws, st.SchedulerIdle = schedulerState(s.net.Scheduler())
	if s.radio != nil {
		st.Radio = radioState(s.radio.inner.Snapshot())
	}
	if s.messenger != nil {
		st.Messenger = messengerState(s.messenger.inner.Snapshot())
	}
	st.Fault = s.faultState()
	var err error
	if st.TraceDigest, err = s.traceDigest(); err != nil {
		return ckpt.State{}, err
	}
	if st.ObsDigest, err = s.obsDigest(); err != nil {
		return ckpt.State{}, err
	}
	return st, nil
}

// faultState snapshots the injector's radio-window cursor, nil when the
// swarm has no fault plan.
func (s *Swarm) faultState() *ckpt.FaultState {
	inj := s.net.World().Injector()
	if inj == nil {
		return nil
	}
	fi, ok := inj.(*fault.Injector)
	if !ok {
		return nil
	}
	outage, jam := fi.WindowState()
	fs := &ckpt.FaultState{Jam: jam}
	if anyTrue(outage) {
		fs.Outage = outage
	}
	return fs
}

// traceDigest hashes the movement trace CSV ("" when tracing is off).
// The trace is append-only, so the hash runs incrementally: each call
// feeds only the instants recorded since the previous one into the
// running SHA-256, and the result equals ckpt.Digest of a full
// WriteTraceCSV. Nothing is hashed on the step path — only here, on
// request.
func (s *Swarm) traceDigest() (string, error) {
	if !s.opts.trace {
		return "", nil
	}
	tr := s.net.World().Trace()
	if tr == nil {
		return "", errors.New("waggle: checkpoint trace digest: tracing disabled")
	}
	if s.traceHash == nil {
		s.traceHash = sha256.New()
	}
	next, err := tr.WriteCSVFrom(s.traceHash, s.traceNext)
	if err != nil {
		return "", fmt.Errorf("waggle: checkpoint trace digest: %w", err)
	}
	s.traceNext = next
	return hex.EncodeToString(s.traceHash.Sum(nil)), nil
}

// obsDigest hashes the deterministic observability snapshot ("" when no
// observer is attached).
func (s *Swarm) obsDigest() (string, error) {
	if s.opts.observer == nil {
		return "", nil
	}
	var buf bytes.Buffer
	if err := s.opts.observer.DeterministicSnapshot().WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("waggle: checkpoint obs digest: %w", err)
	}
	return ckpt.Digest(buf.Bytes()), nil
}

// schedulerState extracts the RNG stream position of the activation
// scheduler, unwrapping the FirstSync shell every asynchronous swarm
// uses. Stateless schedulers report zero.
func schedulerState(sc sim.Scheduler) (uint64, []int) {
	if fs, ok := sc.(sim.FirstSync); ok {
		sc = fs.Inner
	}
	if rf, ok := sc.(*sim.RandomFair); ok {
		return rf.StreamState()
	}
	return 0, nil
}

// schedulerStateRef is schedulerState without the idle copy: the slice
// aliases the scheduler and must not be retained across a step. The
// delta checkpointer diffs it against its mirror on every save.
func schedulerStateRef(sc sim.Scheduler) (uint64, []int) {
	if fs, ok := sc.(sim.FirstSync); ok {
		sc = fs.Inner
	}
	if rf, ok := sc.(*sim.RandomFair); ok {
		return rf.StreamStateRef()
	}
	return 0, nil
}

func radioState(rs core.RadioSnapshot) *ckpt.RadioState {
	out := &ckpt.RadioState{
		Seed:      rs.Seed,
		Draws:     rs.Draws,
		JamProb:   rs.JamProb,
		Broken:    rs.Broken,
		Sent:      rs.Sent,
		Lost:      rs.Lost,
		Delivered: rs.Delivered,
	}
	if len(rs.Inboxes) > 0 {
		out.Inboxes = make([][]ckpt.MessageState, len(rs.Inboxes))
		for i, box := range rs.Inboxes {
			for _, msg := range box {
				out.Inboxes[i] = append(out.Inboxes[i], ckpt.MessageState{
					From: msg.From, To: msg.To, Payload: nilIfEmpty(msg.Payload),
				})
			}
		}
	}
	return out
}

func messengerState(ms core.MessengerSnapshot) *ckpt.MessengerState {
	out := &ckpt.MessengerState{
		ViaRadio:     ms.Stats.ViaRadio,
		ViaMovement:  ms.Stats.ViaMovement,
		Retries:      ms.Stats.Retries,
		Failovers:    ms.Stats.Failovers,
		Failbacks:    ms.Stats.Failbacks,
		Expired:      ms.Stats.Expired,
		ImplicitAcks: ms.Stats.ImplicitAcks,
		AckCursor:    ms.AckCursor,
	}
	for _, p := range ms.Pending {
		out.Pending = append(out.Pending, ckpt.PendingState{
			From: p.From, To: p.To, Payload: nilIfEmpty(p.Payload),
			Submitted: p.Submitted, Attempts: p.Attempts, NextTry: p.NextTry,
		})
	}
	for _, wtc := range ms.Watches {
		out.Watches = append(out.Watches, ckpt.MessageState{
			From: wtc.From, To: wtc.To, Payload: nilIfEmpty(wtc.Payload),
		})
	}
	if ms.Mode != nil {
		out.Mode = make([]int, len(ms.Mode))
		for i, m := range ms.Mode {
			out.Mode[i] = int(m)
		}
	}
	out.ProbeAt = ms.ProbeAt
	return out
}

func messagesToState(recs []protocol.Received) []ckpt.MessageState {
	if len(recs) == 0 {
		return nil
	}
	out := make([]ckpt.MessageState, len(recs))
	for i, r := range recs {
		out[i] = ckpt.MessageState{From: r.From, To: r.To, Payload: nilIfEmpty(r.Payload)}
	}
	return out
}

func xyFromPoints(pts []Point) []ckpt.XY {
	out := make([]ckpt.XY, len(pts))
	for i, p := range pts {
		out[i] = ckpt.XY{X: p.X, Y: p.Y}
	}
	return out
}

func pointsFromXY(xs []ckpt.XY) []Point {
	out := make([]Point, len(xs))
	for i, p := range xs {
		out[i] = Point{X: p.X, Y: p.Y}
	}
	return out
}

func nilIfEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// firstStateDiff names the first top-level State field that differs,
// for actionable ErrRestoreMismatch messages.
func firstStateDiff(got, want ckpt.State) string {
	return firstFieldDiff(reflect.ValueOf(got), reflect.ValueOf(want))
}

// firstConfigDiff names the first top-level Config field that differs.
func firstConfigDiff(got, want ckpt.Config) string {
	return firstFieldDiff(reflect.ValueOf(got), reflect.ValueOf(want))
}

func firstFieldDiff(got, want reflect.Value) string {
	t := got.Type()
	for i := 0; i < t.NumField(); i++ {
		if !reflect.DeepEqual(got.Field(i).Interface(), want.Field(i).Interface()) {
			return fmt.Sprintf("field %s: replayed %+v, checkpoint says %+v",
				t.Field(i).Name, got.Field(i).Interface(), want.Field(i).Interface())
		}
	}
	return "states differ (no top-level field mismatch?)"
}
