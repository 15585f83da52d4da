package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"waggle/internal/ckpt"
	"waggle/internal/geom"
	"waggle/internal/sim"
	"waggle/internal/wire"
)

// The swarm-scale workload: the million-robot engine path at a size a
// 2-CPU host steps in well under a second, with the movement stream
// attached and a spectator joining every round.
const (
	scaleRobots = 100_000
	// scaleSparseDiv sets the sparse instants' activation share (1/20, a
	// rotating 5% block, as in BENCH_step's sparse workload).
	scaleSparseDiv = 20
	// A round is one synchronous instant, scaleSparsePerRound sparse
	// ones, and one spectator join.
	scaleSparsePerRound = 3
	// scaleKeyframeEvery is the tap's keyframe cadence in instants: a
	// join decodes at most this many step records past the keyframe.
	scaleKeyframeEvery = 8
	// scaleSegmentRounds is how many rounds one stream file holds before
	// the tap starts a fresh one, so a join reads a file of bounded size
	// and neither join time nor memory grows with the run's length.
	scaleSegmentRounds = 8
	scaleSetups        = 5
)

// centroidDrift walks toward the centroid of the robots it can see
// (BENCH_step's behaviour), read through a compact view.
func centroidDrift(v sim.View) geom.Point {
	var cx, cy float64
	for _, p := range v.Points {
		cx += p.X
		cy += p.Y
	}
	if len(v.Points) == 0 {
		return geom.Pt(0, 0)
	}
	n := float64(len(v.Points))
	return geom.Pt(cx/n*0.1, cy/n*0.1)
}

// blockScheduler activates a rotating block of robots.
type blockScheduler struct{ size int }

func (s blockScheduler) Next(t, n int) []int {
	out := make([]int, s.size)
	start := (t * s.size) % n
	for k := range out {
		out[k] = (start + k) % n
	}
	return out
}

// gatedProbe is a behaviour probe the traced run switches on for its
// traced rounds only, so one world serves both the untraced reference
// and the traced rounds.
type gatedProbe struct {
	*behaviorProbe
	on atomic.Bool
}

type gatedBehavior struct {
	probedBehavior
	g *gatedProbe
}

func (b gatedBehavior) Step(v sim.View) geom.Point {
	if !b.g.on.Load() {
		return b.inner.Step(v)
	}
	return b.probedBehavior.Step(v)
}

// scaleWorld builds the swarm from the seed: uniform density (about 20
// robots in each sensor disc), bounded sensors, compact views, the
// parallel engine.
func scaleWorld(seed int64, probe *gatedProbe) (*sim.World, error) {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(scaleRobots)) * 10
	pos := make([]geom.Point, scaleRobots)
	robots := make([]*sim.Robot, scaleRobots)
	drift := sim.BehaviorFunc(centroidDrift)
	for i := range pos {
		pos[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		var b sim.Behavior = drift
		if probe != nil {
			b = gatedBehavior{probedBehavior{inner: drift, p: probe.behaviorProbe, i: i}, probe}
		}
		robots[i] = &sim.Robot{Frame: geom.WorldFrame(), Sigma: 0.5, VisRadius: 25, Behavior: b}
	}
	w, err := sim.NewWorld(sim.Config{Positions: pos, Robots: robots, Engine: sim.EngineParallel})
	if err != nil {
		return nil, err
	}
	w.SetCompactViews(true)
	return w, nil
}

// streamTap is the benchmark's stream sink: it mirrors the facade's tap
// (waggle.StreamWriter) at the sim.World layer — stage every applied
// move, append one step record per instant, a keyframe every
// scaleKeyframeEvery instants — and times the calls into wire.
type streamTap struct {
	path     string
	w        *wire.StreamWriter
	world    *sim.World
	moves    []wire.StreamMove
	sinceKey int
	err      error
	xy       []ckpt.XY
	rounds   int
	// closed counts the bytes of the segments already rotated out.
	closed int64

	// Traced rounds only: the behaviour probe, the time spent staging
	// moves, and the EndStep call with the wire appends inside it.
	gate        *gatedProbe
	traced      bool
	recordStart time.Time
	record      time.Duration
	records     int
	endStart    time.Time
	endDur      time.Duration
	appends     []time.Duration
}

func (t *streamTap) RecordMove(tm, robot int, to geom.Point) {
	if !t.traced {
		t.moves = append(t.moves, wire.StreamMove{Robot: robot, To: ckpt.XY{X: to.X, Y: to.Y}})
		return
	}
	t0 := time.Now()
	if t.records == 0 {
		t.recordStart = t0
	}
	t.moves = append(t.moves, wire.StreamMove{Robot: robot, To: ckpt.XY{X: to.X, Y: to.Y}})
	t.record += time.Since(t0)
	t.records++
}

func (t *streamTap) EndStep(tm int, active []int) {
	if t.traced {
		t.endStart = time.Now()
		defer func() { t.endDur = time.Since(t.endStart) }()
	}
	if t.err != nil {
		t.moves = t.moves[:0]
		return
	}
	t0 := time.Now()
	t.err = t.w.AppendStep(tm, t.moves, active, nil, nil)
	if t.traced {
		t.appends = append(t.appends, time.Since(t0))
	}
	t.moves = t.moves[:0]
	if t.sinceKey++; t.sinceKey >= scaleKeyframeEvery && t.err == nil {
		t.sinceKey = 0
		t0 := time.Now()
		t.err = t.w.AppendKeyframe(tm+1, t.positions(), 0, "")
		if t.traced {
			t.appends = append(t.appends, time.Since(t0))
		}
	}
}

// rotate starts a fresh stream segment with its attach keyframe.
func (t *streamTap) rotate() error {
	if t.w != nil {
		t.closed += t.w.Offset()
		if err := t.w.Close(); err != nil {
			return err
		}
		if err := os.Remove(t.path); err != nil {
			return err
		}
	}
	w, err := wire.OpenStream(t.path, scaleRobots, scaleKeyframeEvery, 0)
	if err != nil {
		return err
	}
	t.w, t.sinceKey = w, 0
	return w.AppendKeyframe(t.world.Time(), t.positions(), 0, "")
}

// written is every byte the tap has appended.
func (t *streamTap) written() int64 { return t.closed + t.w.Offset() }

func (t *streamTap) positions() []ckpt.XY {
	for i, p := range t.world.Positions() {
		t.xy[i] = ckpt.XY{X: p.X, Y: p.Y}
	}
	return t.xy
}

// scaleRound is one round's timings.
type scaleRound struct {
	sync, join, read, decode time.Duration
	sparse                   [scaleSparsePerRound]time.Duration
	// cpu is the process CPU time the round cost, steps and join.
	cpu         time.Duration
	activations int
	records     int
}

func (r scaleRound) steps() time.Duration {
	d := r.sync
	for _, s := range r.sparse {
		d += s
	}
	return d
}

func (r scaleRound) total() time.Duration { return r.steps() + r.join }

func runScale(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	var probe *gatedProbe
	if cfg.traced {
		probe = &gatedProbe{behaviorProbe: newBehaviorProbe(scaleRobots)}
	}
	var setups []float64
	var w *sim.World
	for i := 0; i < scaleSetups; i++ {
		w = nil
		cpu0 := cpuTime()
		var err error
		if w, err = scaleWorld(cfg.seed, probe); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	tap := &streamTap{path: cfg.scratchPath("scale.wstream"), world: w, xy: make([]ckpt.XY, scaleRobots)}
	defer func() {
		if tap.w != nil {
			tap.w.Close()
		}
	}()
	w.SetStreamSink(tap)
	sparse := blockScheduler{size: scaleRobots / scaleSparseDiv}

	// One untimed round lets the grid, the view scratch and the page
	// cache warm up.
	if _, err := scaleRoundRun(w, tap, sparse, nil, out); err != nil {
		return nil, err
	}
	budget := cfg.seconds
	if cfg.traced {
		budget /= 2
	}
	var rounds []scaleRound
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < budget {
		r, err := scaleRoundRun(w, tap, sparse, nil, out)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	var roundMS, roundCPU, syncMS, sparseMS, joinMS []float64
	var cpu time.Duration
	activations := 0
	for _, r := range rounds {
		roundMS = append(roundMS, ms(r.total()))
		roundCPU = append(roundCPU, ms(r.cpu))
		syncMS = append(syncMS, ms(r.sync))
		for _, s := range r.sparse {
			sparseMS = append(sparseMS, ms(s))
		}
		joinMS = append(joinMS, ms(r.join))
		cpu += r.cpu
		activations += r.activations
	}
	// A round runs for most of a second on both CPUs, long enough that
	// its wall time tracks how much the host steals; its CPU time does
	// not. The wall times are printed as scale.*_ms.
	cpuS := summarize(roundCPU)
	out.e2e["op_p50_ms"] = cpuS.P50
	out.e2e["op_tail_ms"] = cpuS.Tail
	out.e2e["throughput_per_cpu_s"] = float64(activations) / cpu.Seconds()
	out.named = []namedValue{
		{"scale.round_cpu_ms", "ms", cpuS},
		{"scale.round_ms", "ms", summarize(roundMS)},
		{"scale.sync_step_ms", "ms", summarize(syncMS)},
		{"scale.sparse_step_ms", "ms", summarize(sparseMS)},
		{"scale.join_ms", "ms", summarize(joinMS)},
		{"scale.setup_s", "s", summarize(setups)},
	}
	if !cfg.traced {
		return out, nil
	}
	return out, scaleTraced(cfg, out, w, tap, sparse, probe, rounds, budget)
}

// scaleRoundRun steps one round and joins the stream as a spectator
// would: read the file, decode from its latest keyframe. The join must
// decode to the world's current positions. With tr set, every call
// into sim and wire is a span under one root per round.
func scaleRoundRun(w *sim.World, tap *streamTap, sparse blockScheduler, tr *tracer, out *outcome) (r scaleRound, err error) {
	if tap.rounds%scaleSegmentRounds == 0 {
		if err := tap.rotate(); err != nil {
			return r, err
		}
	}
	tap.rounds++
	cpu0 := cpuTime()
	defer func() { r.cpu = cpuTime() - cpu0 }()
	root := noParent
	if tr != nil {
		root = tr.begin("scale.round", noParent)
	}
	step := func(s sim.Scheduler) (time.Duration, error) {
		id := noParent
		if tr != nil {
			tap.record, tap.records, tap.appends = 0, 0, tap.appends[:0]
			id = tr.begin("sim.step", root)
		}
		t0 := time.Now()
		active, err := w.Step(s)
		d := time.Since(t0)
		if tr != nil {
			tr.end(id)
			tr.timed("trace.bookkeeping", root, func() error { tap.probe(tr, id, active); return nil })
		}
		r.activations += len(active)
		if err == nil {
			err = tap.err
		}
		return d, err
	}
	if r.sync, err = step(sim.Synchronous{}); err != nil {
		return r, err
	}
	for k := range r.sparse {
		if r.sparse[k], err = step(sparse); err != nil {
			return r, err
		}
	}
	t0 := time.Now()
	var data []byte
	read := func() (err error) { data, err = os.ReadFile(tap.path); return err }
	var recs []wire.StreamRecord
	decode := func() (err error) { recs, _, _, err = wire.TailStream(data, -1, 0); return err }
	if tr != nil {
		err = tr.timed("wire.join_read", root, read)
	} else {
		err = read()
	}
	r.read = time.Since(t0)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	if tr != nil {
		err = tr.timed("wire.join_decode", root, decode)
	} else {
		err = decode()
	}
	r.decode = time.Since(t1)
	r.join = time.Since(t0)
	if tr != nil {
		tr.end(root)
	}
	if err != nil {
		return r, err
	}
	r.records = len(recs)
	out.attempted++
	if err := checkJoin(recs, w); err != nil {
		out.fail("join at t=%d: %v", w.Time(), err)
	}
	return r, nil
}

// probe records the traced instant's behaviour calls and stream-tap
// calls as spans under the step span.
func (t *streamTap) probe(tr *tracer, step int, active []int) {
	if g := t.gate; g != nil && g.on.Load() {
		g.record(tr, step, active)
	}
	if !t.traced {
		return
	}
	tr.add("sink.record", step, t.recordStart, t.record, t.records)
	end := tr.add("sink.end_step", step, t.endStart, t.endDur, 1)
	for _, d := range t.appends {
		tr.add("wire.append", end, t.endStart, d, 1)
	}
}

// checkJoin rolls the joined records (a keyframe, then steps) forward
// and compares the result with the world's positions.
func checkJoin(recs []wire.StreamRecord, w *sim.World) error {
	if len(recs) == 0 || recs[0].Kind != wire.StreamKeyframe {
		return fmt.Errorf("join did not start at a keyframe (%d records)", len(recs))
	}
	pos := append([]ckpt.XY(nil), recs[0].Positions...)
	for _, rec := range recs[1:] {
		if rec.Kind == wire.StreamKeyframe {
			pos = append(pos[:0], rec.Positions...)
		}
		for _, m := range rec.Moves {
			pos[m.Robot] = m.To
		}
	}
	for i, p := range w.Positions() {
		if pos[i].X != p.X || pos[i].Y != p.Y {
			return fmt.Errorf("robot %d decodes to %v, world has %v", i, pos[i], p)
		}
	}
	return nil
}

// scaleTraced runs as many traced rounds as the untraced reference had,
// on the same world, and derives the per-layer metrics.
func scaleTraced(cfg runConfig, out *outcome, w *sim.World, tap *streamTap, sparse blockScheduler, probe *gatedProbe, ref []scaleRound, budget float64) error {
	tr := &tracer{}
	tap.gate = probe
	probe.on.Store(true)
	tap.traced = true
	var rounds []scaleRound
	start := time.Now()
	for len(rounds) < len(ref) && (len(rounds) == 0 || time.Since(start).Seconds() < 2*budget) {
		r, err := scaleRoundRun(w, tap, sparse, tr, out)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
	}
	probe.on.Store(false)
	tap.traced = false
	var refTotal, tracedTotal time.Duration
	records := 0
	var read, decode []float64
	for i, r := range rounds {
		refTotal += ref[i].total()
		tracedTotal += r.total()
		records += r.records
		read = append(read, ms(r.read))
		decode = append(decode, ms(r.decode))
	}
	ts := tr.summary()
	stepTotal := ts.total("sim.step")
	out.layers = map[string]float64{
		"protocol.behavior_calls": float64(ts.calls("protocol.behavior")),
		"protocol.behavior_s":     ts.total("protocol.behavior"),
		"protocol.behavior_share": safeDiv(ts.total("protocol.behavior"), stepTotal),
		"sim.step_ms":             ts.meanMS("sim.step"),
		"sim.activations":         float64(ts.calls("protocol.behavior")),
		"sim.self_s":              ts.self("sim.step"),
		"wire.append_ms":          ts.meanMS("wire.append"),
		"wire.bytes_per_instant":  float64(tap.written()) / float64(w.Time()),
		"wire.join_read_ms":       median(read),
		"wire.join_decode_ms":     median(decode),
		"wire.join_records":       float64(records) / float64(len(rounds)),
		"trace.overhead_ratio":    safeDiv(tracedTotal.Seconds(), refTotal.Seconds()),
		"trace.unaccounted_share": ts.unaccountedShare(),
		"trace.overflow_spans":    float64(ts.Overflows),
	}
	out.reconcile = ts.reconcile("scale.round")
	return tr.writeChrome(cfg.spans, 20000)
}
