// Package wire is the compact binary checkpoint codec ("waggle-ckpt/v2")
// and its delta-chain extension. It keeps the exact discipline of the
// JSON v1 codec in internal/ckpt — versioned header, CRC32 over the
// body, typed ErrSchema/ErrChecksum/ErrTruncated failures — while
// encoding the same ckpt.Checkpoint an order of magnitude smaller:
//
//   - integers are varints (zig-zag for signed values), so the many
//     near-zero counters of a large swarm cost one byte each;
//   - positions are zig-zag delta coded: exactly-representable
//     fixed-point configurations ship as integer deltas, everything
//     else as deltas of IEEE-754 bit patterns — both are lossless, so
//     a decode round trip is reflect.DeepEqual with the original and
//     the restore-time recapture check still holds bit for bit;
//   - the state positions are coded sparsely against the config
//     positions, so a robot that never moved costs two bytes;
//   - the input log keeps its run-length merge and ops are coded as
//     single-byte opcodes.
//
// A v2 file is a base frame optionally followed by delta frames (see
// chain.go); Decode folds the chain back into one Checkpoint. Every
// checkpoint save writes this format. The JSON v1 envelope remains
// readable (package waggle's loader tells the two apart by Detect) for
// backward compatibility, and writable only as a debugging dump.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"waggle/internal/ckpt"
)

// Schema is the version tag of the binary checkpoint format, reported
// in errors alongside the v1 tag so a wrong-version file names both.
const Schema = "waggle-ckpt/v2"

// Frame magics. A v2 file starts with a base frame; zero or more delta
// frames follow. The magic doubles as the format version: an
// incompatible future layout gets a new magic and old readers fail
// with ErrSchema instead of misparsing.
var (
	magicBase  = Magic{Tag: "WCK2"}
	magicDelta = Magic{Tag: "WCD2", Linked: true}
)

// fixedShift is the fixed-point probe resolution: a configuration whose
// coordinates are all integer multiples of 2^-fixedShift (and small
// enough to fit the mantissa budget) is coded as integer deltas. The
// scale is a power of two, so the int64 round trip is exact — the probe
// only selects the mode, it never quantizes.
const fixedShift = 20

// Detect reports whether data starts with a v2 base frame.
func Detect(data []byte) bool {
	return len(data) >= magicLen && string(data[:magicLen]) == magicBase.Tag
}

// Encode serializes a checkpoint as a single v2 base frame.
func Encode(ck *ckpt.Checkpoint) ([]byte, error) {
	frame, _, err := EncodeBaseFrame(ck)
	return frame, err
}

// Decode parses a v2 file — a base frame plus any appended delta
// frames — and folds it back into one checkpoint. Failure modes are the
// ckpt sentinels: ErrSchema (wrong magic), ErrChecksum (a frame's body
// fails its CRC32 or a delta's back-link names the wrong predecessor),
// ErrTruncated (cut short or malformed). A truncated *trailing* delta
// frame is the signature of a crash mid-append and is dropped: the
// chain loads as of the last complete frame, exactly what the atomic
// v1 semantics promise.
func Decode(data []byte) (*ckpt.Checkpoint, error) {
	return DecodeChain(data)
}

// ---------------------------------------------------------------------
// Primitives: a byte writer and a sticky-error reader. Every count the
// reader trusts is capped by the bytes actually remaining, so a
// corrupted length can never make a decode allocate more than the
// input's own size.

type writer struct {
	buf []byte
}

func (w *writer) raw(b []byte)     { w.buf = append(w.buf, b...) }
func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) uint(v int)       { w.uvarint(uint64(v)) }
func (w *writer) int(v int)        { w.varint(int64(v)) }

func (w *writer) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// bytes is nil-aware: the header is len+1, with 0 meaning nil, so the
// v1 nil-if-empty capture discipline survives the round trip and the
// restore recapture check stays a plain reflect.DeepEqual.
func (w *writer) bytes(b []byte) {
	if b == nil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(len(b)) + 1)
	w.raw(b)
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.raw([]byte(s))
}

// sliceLen writes the nil-aware header for any slice.
func (w *writer) sliceLen(n int, isNil bool) {
	if isNil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(n) + 1)
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ckpt.ErrTruncated, fmt.Sprintf(format, args...))
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail("need %d bytes, %d remain", n, r.remaining())
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) byte() byte {
	b := r.raw(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) int() int { return int(r.varint()) }

func (r *reader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool at offset %d", r.pos-1)
		return false
	}
}

func (r *reader) f64() float64 {
	b := r.raw(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *reader) bytes() []byte {
	h := r.uvarint()
	if h == 0 {
		return nil
	}
	n := int(h - 1)
	b := r.raw(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (r *reader) str() string {
	n := int(r.uvarint())
	b := r.raw(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// sliceLen reads a nil-aware slice header, capping the claimed count by
// the bytes remaining (each element costs at least minBytes on the
// wire), so a flipped length bit cannot trigger a giant allocation.
func (r *reader) sliceLen(minBytes int) (n int, isNil bool) {
	h := r.uvarint()
	if h == 0 {
		return 0, true
	}
	n = int(h - 1)
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > r.remaining()/minBytes {
		r.fail("slice of %d elements exceeds %d remaining bytes", n, r.remaining())
		return 0, false
	}
	return n, false
}

// ---------------------------------------------------------------------
// Position coding.

// encodePositions writes a self-contained position list. The fixed-point
// probe picks integer delta coding when every coordinate is exactly an
// integer multiple of 2^-fixedShift; otherwise consecutive IEEE-754 bit
// patterns are delta coded. Both modes reconstruct the float64 bits
// exactly.
func encodePositions(w *writer, pts []ckpt.XY) {
	w.sliceLen(len(pts), pts == nil)
	if pts == nil {
		return
	}
	if fixedExact(pts) {
		w.byte(1)
		w.byte(fixedShift)
		var px, py int64
		for _, p := range pts {
			ix := int64(p.X * (1 << fixedShift))
			iy := int64(p.Y * (1 << fixedShift))
			w.varint(ix - px)
			w.varint(iy - py)
			px, py = ix, iy
		}
		return
	}
	w.byte(0)
	var px, py uint64
	for _, p := range pts {
		bx, by := math.Float64bits(p.X), math.Float64bits(p.Y)
		w.varint(int64(bx - px))
		w.varint(int64(by - py))
		px, py = bx, by
	}
}

func decodePositions(r *reader) []ckpt.XY {
	n, isNil := r.sliceLen(2)
	if isNil || r.err != nil {
		return nil
	}
	pts := make([]ckpt.XY, n)
	switch mode := r.byte(); mode {
	case 1:
		shift := int(r.byte())
		if shift <= 0 || shift > 62 {
			r.fail("bad fixed-point shift %d", shift)
			return nil
		}
		scale := float64(int64(1) << shift)
		var px, py int64
		for i := 0; i < n && r.err == nil; i++ {
			px += r.varint()
			py += r.varint()
			pts[i] = ckpt.XY{X: float64(px) / scale, Y: float64(py) / scale}
		}
	case 0:
		var px, py uint64
		for i := 0; i < n && r.err == nil; i++ {
			px += uint64(r.varint())
			py += uint64(r.varint())
			pts[i] = ckpt.XY{X: math.Float64frombits(px), Y: math.Float64frombits(py)}
		}
	default:
		r.fail("bad position mode %d", mode)
		return nil
	}
	if r.err != nil {
		return nil
	}
	return pts
}

// fixedExact reports whether every coordinate is exactly representable
// at the fixed-point resolution (and within the int64 headroom).
func fixedExact(pts []ckpt.XY) bool {
	for _, p := range pts {
		if !fixedOK(p.X) || !fixedOK(p.Y) {
			return false
		}
	}
	return true
}

// encodeStatePositions codes the state positions sparsely against the
// config positions: only the robots whose position bits differ are
// written (index gaps + bit-pattern deltas). A robot that never moved
// costs nothing; the common sparse-activation snapshot is a handful of
// entries. Falls back to a self-contained list when the lengths differ.
func encodeStatePositions(w *writer, state, base []ckpt.XY) {
	if state == nil || len(state) != len(base) {
		w.byte(0)
		encodePositions(w, state)
		return
	}
	w.byte(1)
	changed := 0
	for i := range state {
		if state[i] != base[i] {
			changed++
		}
	}
	w.uint(changed)
	prev := -1
	for i := range state {
		if state[i] == base[i] {
			continue
		}
		w.uint(i - prev)
		w.varint(int64(math.Float64bits(state[i].X) - math.Float64bits(base[i].X)))
		w.varint(int64(math.Float64bits(state[i].Y) - math.Float64bits(base[i].Y)))
		prev = i
	}
}

func decodeStatePositions(r *reader, base []ckpt.XY) []ckpt.XY {
	switch mode := r.byte(); mode {
	case 0:
		return decodePositions(r)
	case 1:
		changed, _ := r.sliceLenRaw(3)
		if r.err != nil {
			return nil
		}
		out := make([]ckpt.XY, len(base))
		copy(out, base)
		idx := -1
		for k := 0; k < changed && r.err == nil; k++ {
			gap := int(r.uvarint())
			idx += gap
			if gap <= 0 || idx >= len(out) {
				r.fail("state position index %d out of range %d", idx, len(out))
				return nil
			}
			dx := uint64(r.varint())
			dy := uint64(r.varint())
			out[idx] = ckpt.XY{
				X: math.Float64frombits(math.Float64bits(base[idx].X) + dx),
				Y: math.Float64frombits(math.Float64bits(base[idx].Y) + dy),
			}
		}
		if r.err != nil {
			return nil
		}
		return out
	default:
		r.fail("bad state position mode %d", mode)
		return nil
	}
}

// sliceLenRaw is sliceLen without the nil-aware +1 shift, for counts
// that are never nil.
func (r *reader) sliceLenRaw(minBytes int) (int, bool) {
	n := int(r.uvarint())
	if minBytes < 1 {
		minBytes = 1
	}
	if n < 0 || n > r.remaining()/minBytes {
		r.fail("count %d exceeds %d remaining bytes", n, r.remaining())
		return 0, false
	}
	return n, false
}

// ---------------------------------------------------------------------
// Input coding. Ops are single-byte opcodes; an unknown op (a future
// schema revision) round-trips as an escaped literal string.

var opToCode = map[string]byte{
	ckpt.OpSend: 1, ckpt.OpBroadcast: 2, ckpt.OpSendAll: 3, ckpt.OpStep: 4,
	ckpt.OpRunDelivered: 5, ckpt.OpRunQuiet: 6, ckpt.OpMsgSend: 7,
	ckpt.OpMsgTick: 8, ckpt.OpMsgStep: 9, ckpt.OpMsgRun: 10,
	ckpt.OpMsgPolicy: 11, ckpt.OpRadioBreak: 12, ckpt.OpRadioRepair: 13,
	ckpt.OpRadioJam: 14, ckpt.OpRadioSend: 15, ckpt.OpRadioRecv: 16,
}

var codeToOp = func() map[byte]string {
	m := make(map[byte]string, len(opToCode))
	for op, c := range opToCode {
		m[c] = op
	}
	return m
}()

func encodeInput(w *writer, in *ckpt.Input) {
	if code, ok := opToCode[in.Op]; ok {
		w.byte(code)
	} else {
		w.byte(0)
		w.str(in.Op)
	}
	w.int(in.T)
	w.int(in.From)
	w.int(in.To)
	w.bytes(in.Payload)
	w.int(in.Count)
	w.int(in.Max)
	w.int(in.Reps)
	w.f64(in.P)
	if in.Policy == nil {
		w.bool(false)
	} else {
		w.bool(true)
		w.int(in.Policy.MaxRetries)
		w.int(in.Policy.Backoff)
		w.int(in.Policy.Deadline)
		w.int(in.Policy.ProbeEvery)
	}
}

func decodeInput(r *reader) ckpt.Input {
	var in ckpt.Input
	code := r.byte()
	if code == 0 {
		in.Op = r.str()
	} else {
		op, ok := codeToOp[code]
		if !ok {
			r.fail("unknown opcode %d", code)
			return in
		}
		in.Op = op
	}
	in.T = r.int()
	in.From = r.int()
	in.To = r.int()
	in.Payload = r.bytes()
	in.Count = r.int()
	in.Max = r.int()
	in.Reps = r.int()
	in.P = r.f64()
	if r.bool() {
		in.Policy = &ckpt.PolicyConfig{
			MaxRetries: r.int(),
			Backoff:    r.int(),
			Deadline:   r.int(),
			ProbeEvery: r.int(),
		}
	}
	return in
}

func encodeInputs(w *writer, inputs []ckpt.Input) {
	w.sliceLen(len(inputs), inputs == nil)
	for i := range inputs {
		encodeInput(w, &inputs[i])
	}
}

func decodeInputs(r *reader) []ckpt.Input {
	n, isNil := r.sliceLen(12)
	if isNil || r.err != nil {
		return nil
	}
	out := make([]ckpt.Input, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = decodeInput(r)
	}
	if r.err != nil {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------
// Config coding.

func encodeOptions(w *writer, o *ckpt.Options) {
	w.bool(o.Synchronous)
	w.bool(o.Identified)
	w.bool(o.SenseOfDirection)
	w.bool(o.LeftHanded)
	w.int(o.Protocol)
	w.int(o.Levels)
	w.int(o.BoundedSlices)
	w.bool(o.AlternateDrift)
	w.varint(o.Seed)
	w.f64(o.Sigma)
	w.bool(o.Trace)
	if o.Flock == nil {
		w.bool(false)
	} else {
		w.bool(true)
		w.f64(o.Flock.X)
		w.f64(o.Flock.Y)
	}
	w.int(o.Scheduler)
	w.int(o.StarveVictim)
	w.int(o.StarveDelay)
	w.f64(o.ActivationProb)
	w.int(o.Engine)
	w.int(o.StabilizeEpoch)
	w.sliceLen(len(o.FaultPlan), o.FaultPlan == nil)
	for _, e := range o.FaultPlan {
		w.int(e.Kind)
		w.int(e.At)
		w.int(e.Until)
		w.int(e.Robot)
		w.f64(e.Mag)
		w.f64(e.Min)
		w.f64(e.Max)
		w.f64(e.DX)
		w.f64(e.DY)
	}
	w.bool(o.HasFaultPlan)
	w.bool(o.FaultRadio)
}

func decodeOptions(r *reader) ckpt.Options {
	var o ckpt.Options
	o.Synchronous = r.bool()
	o.Identified = r.bool()
	o.SenseOfDirection = r.bool()
	o.LeftHanded = r.bool()
	o.Protocol = r.int()
	o.Levels = r.int()
	o.BoundedSlices = r.int()
	o.AlternateDrift = r.bool()
	o.Seed = r.varint()
	o.Sigma = r.f64()
	o.Trace = r.bool()
	if r.bool() {
		o.Flock = &ckpt.XY{X: r.f64(), Y: r.f64()}
	}
	o.Scheduler = r.int()
	o.StarveVictim = r.int()
	o.StarveDelay = r.int()
	o.ActivationProb = r.f64()
	o.Engine = r.int()
	o.StabilizeEpoch = r.int()
	n, isNil := r.sliceLen(44)
	if !isNil && r.err == nil {
		o.FaultPlan = make([]ckpt.FaultEventConfig, n)
		for i := 0; i < n && r.err == nil; i++ {
			o.FaultPlan[i] = ckpt.FaultEventConfig{
				Kind: r.int(), At: r.int(), Until: r.int(), Robot: r.int(),
				Mag: r.f64(), Min: r.f64(), Max: r.f64(), DX: r.f64(), DY: r.f64(),
			}
		}
	}
	o.HasFaultPlan = r.bool()
	o.FaultRadio = r.bool()
	return o
}

func encodeConfig(w *writer, c *ckpt.Config) {
	encodePositions(w, c.Positions)
	encodeOptions(w, &c.Options)
	if c.Radio == nil {
		w.bool(false)
	} else {
		w.bool(true)
		w.int(c.Radio.N)
		w.varint(c.Radio.Seed)
	}
	w.bool(c.Messenger)
	if c.Observer == nil {
		w.bool(false)
	} else {
		w.bool(true)
		w.int(c.Observer.TraceCapacity)
	}
}

func decodeConfig(r *reader) ckpt.Config {
	var c ckpt.Config
	c.Positions = decodePositions(r)
	c.Options = decodeOptions(r)
	if r.bool() {
		c.Radio = &ckpt.RadioConfig{N: r.int(), Seed: r.varint()}
	}
	c.Messenger = r.bool()
	if r.bool() {
		c.Observer = &ckpt.ObserverConfig{TraceCapacity: r.int()}
	}
	return c
}

// ---------------------------------------------------------------------
// State coding.

func encodeMessage(w *writer, m *ckpt.MessageState) {
	w.int(m.From)
	w.int(m.To)
	w.bytes(m.Payload)
}

func decodeMessage(r *reader) ckpt.MessageState {
	return ckpt.MessageState{From: r.int(), To: r.int(), Payload: r.bytes()}
}

func encodeMessages(w *writer, ms []ckpt.MessageState) {
	w.sliceLen(len(ms), ms == nil)
	for i := range ms {
		encodeMessage(w, &ms[i])
	}
}

func decodeMessages(r *reader) []ckpt.MessageState {
	n, isNil := r.sliceLen(3)
	if isNil || r.err != nil {
		return nil
	}
	out := make([]ckpt.MessageState, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = decodeMessage(r)
	}
	if r.err != nil {
		return nil
	}
	return out
}

func encodeBools(w *writer, bs []bool) {
	w.sliceLen(len(bs), bs == nil)
	for _, b := range bs {
		w.bool(b)
	}
}

func decodeBools(r *reader) []bool {
	n, isNil := r.sliceLen(1)
	if isNil || r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = r.bool()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func encodeInts(w *writer, xs []int) {
	w.sliceLen(len(xs), xs == nil)
	for _, x := range xs {
		w.int(x)
	}
}

func decodeInts(r *reader) []int {
	n, isNil := r.sliceLen(1)
	if isNil || r.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = r.int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func encodeRadioState(w *writer, rs *ckpt.RadioState) {
	if rs == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.varint(rs.Seed)
	w.uvarint(rs.Draws)
	w.f64(rs.JamProb)
	encodeBools(w, rs.Broken)
	w.sliceLen(len(rs.Inboxes), rs.Inboxes == nil)
	for _, box := range rs.Inboxes {
		encodeMessages(w, box)
	}
	w.int(rs.Sent)
	w.int(rs.Lost)
	w.int(rs.Delivered)
}

func decodeRadioState(r *reader) *ckpt.RadioState {
	if !r.bool() {
		return nil
	}
	rs := &ckpt.RadioState{
		Seed:    r.varint(),
		Draws:   r.uvarint(),
		JamProb: r.f64(),
		Broken:  decodeBools(r),
	}
	n, isNil := r.sliceLen(1)
	if !isNil && r.err == nil {
		rs.Inboxes = make([][]ckpt.MessageState, n)
		for i := 0; i < n && r.err == nil; i++ {
			rs.Inboxes[i] = decodeMessages(r)
		}
	}
	rs.Sent = r.int()
	rs.Lost = r.int()
	rs.Delivered = r.int()
	return rs
}

func encodeMessengerState(w *writer, ms *ckpt.MessengerState) {
	if ms == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	w.int(ms.ViaRadio)
	w.int(ms.ViaMovement)
	w.int(ms.Retries)
	w.int(ms.Failovers)
	w.int(ms.Failbacks)
	w.int(ms.Expired)
	w.int(ms.ImplicitAcks)
	w.sliceLen(len(ms.Pending), ms.Pending == nil)
	for _, p := range ms.Pending {
		w.int(p.From)
		w.int(p.To)
		w.bytes(p.Payload)
		w.int(p.Submitted)
		w.int(p.Attempts)
		w.int(p.NextTry)
	}
	encodeMessages(w, ms.Watches)
	w.int(ms.AckCursor)
	encodeInts(w, ms.Mode)
	encodeInts(w, ms.ProbeAt)
}

func decodeMessengerState(r *reader) *ckpt.MessengerState {
	if !r.bool() {
		return nil
	}
	ms := &ckpt.MessengerState{
		ViaRadio:     r.int(),
		ViaMovement:  r.int(),
		Retries:      r.int(),
		Failovers:    r.int(),
		Failbacks:    r.int(),
		Expired:      r.int(),
		ImplicitAcks: r.int(),
	}
	n, isNil := r.sliceLen(6)
	if !isNil && r.err == nil {
		ms.Pending = make([]ckpt.PendingState, n)
		for i := 0; i < n && r.err == nil; i++ {
			ms.Pending[i] = ckpt.PendingState{
				From: r.int(), To: r.int(), Payload: r.bytes(),
				Submitted: r.int(), Attempts: r.int(), NextTry: r.int(),
			}
		}
	}
	ms.Watches = decodeMessages(r)
	ms.AckCursor = r.int()
	ms.Mode = decodeInts(r)
	ms.ProbeAt = decodeInts(r)
	return ms
}

func encodeFaultState(w *writer, fs *ckpt.FaultState) {
	if fs == nil {
		w.bool(false)
		return
	}
	w.bool(true)
	encodeBools(w, fs.Outage)
	w.bool(fs.Jam)
}

func decodeFaultState(r *reader) *ckpt.FaultState {
	if !r.bool() {
		return nil
	}
	return &ckpt.FaultState{Outage: decodeBools(r), Jam: r.bool()}
}

// encodeState writes the state snapshot; basePositions (the config
// positions) anchor the sparse position coding.
func encodeState(w *writer, st *ckpt.State, basePositions []ckpt.XY) {
	w.int(st.Time)
	encodeStatePositions(w, st.Positions, basePositions)
	w.int(st.Consumed)
	encodeMessages(w, st.Delivered)
	w.sliceLen(len(st.Endpoints), st.Endpoints == nil)
	for i := range st.Endpoints {
		ep := &st.Endpoints[i]
		w.int(ep.Pending)
		w.bool(ep.Idle)
		w.int(ep.SentBits)
	}
	w.uvarint(st.SchedulerDraws)
	encodeInts(w, st.SchedulerIdle)
	encodeRadioState(w, st.Radio)
	encodeMessengerState(w, st.Messenger)
	encodeFaultState(w, st.Fault)
	w.str(st.TraceDigest)
	w.str(st.ObsDigest)
}

func decodeState(r *reader, basePositions []ckpt.XY) ckpt.State {
	var st ckpt.State
	st.Time = r.int()
	st.Positions = decodeStatePositions(r, basePositions)
	st.Consumed = r.int()
	st.Delivered = decodeMessages(r)
	n, isNil := r.sliceLen(3)
	if !isNil && r.err == nil {
		st.Endpoints = make([]ckpt.EndpointState, n)
		for i := 0; i < n && r.err == nil; i++ {
			st.Endpoints[i] = ckpt.EndpointState{
				Pending: r.int(), Idle: r.bool(), SentBits: r.int(),
			}
		}
	}
	st.SchedulerDraws = r.uvarint()
	st.SchedulerIdle = decodeInts(r)
	st.Radio = decodeRadioState(r)
	st.Messenger = decodeMessengerState(r)
	st.Fault = decodeFaultState(r)
	st.TraceDigest = r.str()
	st.ObsDigest = r.str()
	return st
}

// encodeCheckpointBody serializes the base-frame body.
func encodeCheckpointBody(ck *ckpt.Checkpoint) ([]byte, error) {
	if ck == nil {
		return nil, fmt.Errorf("wire: nil checkpoint")
	}
	w := &writer{buf: make([]byte, 0, 64+len(ck.Inputs)*8+len(ck.Config.Positions)*20)}
	encodeConfig(w, &ck.Config)
	encodeInputs(w, ck.Inputs)
	encodeState(w, &ck.State, ck.Config.Positions)
	return w.buf, nil
}

// decodeCheckpointBody parses a base-frame body.
func decodeCheckpointBody(body []byte) (*ckpt.Checkpoint, error) {
	r := &reader{buf: body}
	var ck ckpt.Checkpoint
	ck.Config = decodeConfig(r)
	ck.Inputs = decodeInputs(r)
	ck.State = decodeState(r, ck.Config.Positions)
	if r.err != nil {
		return nil, r.err
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in base frame body", ckpt.ErrTruncated, r.remaining())
	}
	return &ck, nil
}
