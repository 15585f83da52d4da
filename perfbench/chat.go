package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"waggle"
	"waggle/internal/core"
	"waggle/internal/figures"
	"waggle/internal/geom"
	"waggle/internal/protocol"
	"waggle/internal/sim"
)

// chatKind is one of the paper's six protocols with the capabilities
// that select it through the facade.
type chatKind struct {
	name   string
	sync   bool
	ids    bool
	sod    bool
	sizes  []int
	naming protocol.Naming
}

// chatKinds spans the paper's protocols from n=2 up to the n=64 where
// one AsyncN chat costs about a second on a 2-CPU host, so the mix is
// dominated by the asynchronous decode path the paper spends most of
// its pages on, while every protocol still runs each pass.
var chatKinds = []chatKind{
	{name: "sync2", sync: true, sizes: []int{2}},
	{name: "syncn-ids", sync: true, ids: true, sizes: []int{3, 8, 16, 32, 64}, naming: protocol.NamingIDs},
	{name: "syncn-sod", sync: true, sod: true, sizes: []int{3, 8, 16, 32, 64}, naming: protocol.NamingLex},
	{name: "syncn-chirality", sync: true, sizes: []int{3, 8, 16, 32, 64}, naming: protocol.NamingSEC},
	{name: "async2", sizes: []int{2}},
	{name: "asyncn", sizes: []int{3, 8, 16, 32, 64}, naming: protocol.NamingSEC},
}

// chatPayloadBytes is every robot's message length: multi-byte, so
// framing and the per-bit decode both show.
const chatPayloadBytes = 3

// chatStepBudget bounds one swarm's run; every chat in the mix delivers
// in under 2,000 instants, so hitting it is a failure.
const chatStepBudget = 50_000

// chatSpec is one swarm of a pass: its inputs, all derived from the
// run's seed.
type chatSpec struct {
	kind      chatKind
	n         int
	seed      int64
	positions []waggle.Point
	to        []int
	payloads  [][]byte
}

// chatPass generates the specs of pass p: one swarm per (protocol,
// size), each robot sending one payload to a random other robot.
func chatPass(seed int64, p int) []chatSpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(p)))
	var specs []chatSpec
	for _, k := range chatKinds {
		for _, n := range k.sizes {
			gp := figures.RandomConfiguration(rng, n, float64(n)*12, 8)
			sp := chatSpec{kind: k, n: n, seed: rng.Int63(), positions: make([]waggle.Point, n)}
			for i, q := range gp {
				sp.positions[i] = waggle.Point{X: q.X, Y: q.Y}
			}
			for i := 0; i < n; i++ {
				to := rng.Intn(n - 1)
				if to >= i {
					to++
				}
				payload := make([]byte, chatPayloadBytes)
				rng.Read(payload)
				sp.to = append(sp.to, to)
				sp.payloads = append(sp.payloads, payload)
			}
			specs = append(specs, sp)
		}
	}
	return specs
}

func (sp chatSpec) options() []waggle.Option {
	opts := []waggle.Option{waggle.WithSeed(sp.seed), waggle.WithTrace()}
	if sp.kind.sync {
		opts = append(opts, waggle.WithSynchronous())
	}
	if sp.kind.ids {
		opts = append(opts, waggle.WithIdentifiedRobots())
	}
	if sp.kind.sod {
		opts = append(opts, waggle.WithSenseOfDirection())
	}
	return opts
}

// chatRun is what one swarm's chat produced.
type chatRun struct {
	setup     time.Duration
	setupCPU  time.Duration
	stepTime  time.Duration
	instants  int
	delivered []waggle.Message
	stepLat   []float64
}

// runFacade runs one chat through the public API, timing every Step.
func (sp chatSpec) runFacade() (chatRun, error) {
	var r chatRun
	t0, cpu0 := time.Now(), cpuTime()
	s, err := waggle.NewSwarm(sp.positions, sp.options()...)
	r.setup, r.setupCPU = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return r, err
	}
	for i := 0; i < sp.n; i++ {
		if err := s.Send(i, sp.to[i], sp.payloads[i]); err != nil {
			return r, err
		}
	}
	for r.instants < chatStepBudget && len(s.Delivered()) < sp.n {
		t := time.Now()
		err := s.Step()
		d := time.Since(t)
		if err != nil {
			return r, err
		}
		r.stepTime += d
		r.stepLat = append(r.stepLat, ms(d))
		r.instants++
	}
	r.delivered = s.Delivered()
	return r, nil
}

// runTraced runs the same chat by assembling the layers the facade
// would (protocol.New*, sim.NewWorld, core.NewNetwork) with every
// behaviour wrapped, and records a span around each call into them. It
// must reproduce runFacade's deliveries and instants exactly.
func (sp chatSpec) runTraced(tr *tracer, l *chatLayers) (chatRun, error) {
	var r chatRun
	root := tr.begin("chat.swarm", noParent)
	defer tr.end(root)
	n := sp.n
	frames := facadeFrames(sp.seed, n, sp.kind.sod || sp.kind.ids)
	sigma := math.MaxFloat64 / 4
	sigmaLocal := make([]float64, n)
	for i, f := range frames {
		sigmaLocal[i] = sigma / f.Scale
	}
	var behaviors []sim.Behavior
	var endpoints []*protocol.Endpoint
	err := tr.timed("protocol.new", root, func() error {
		var err error
		behaviors, endpoints, err = sp.newProtocol(sigmaLocal)
		return err
	})
	if err != nil {
		return r, err
	}
	probe := newBehaviorProbe(n)
	pts := make([]geom.Point, n)
	robots := make([]*sim.Robot, n)
	for i := range robots {
		pts[i] = geom.Pt(sp.positions[i].X, sp.positions[i].Y)
		robots[i] = &sim.Robot{Frame: frames[i], Sigma: sigma, Behavior: probe.wrap(i, behaviors[i])}
	}
	var world *sim.World
	err = tr.timed("sim.new_world", root, func() error {
		var err error
		world, err = sim.NewWorld(sim.Config{Positions: pts, Robots: robots, Identified: sp.kind.ids, RecordTrace: true})
		return err
	})
	if err != nil {
		return r, err
	}
	var sched sim.Scheduler = sim.Synchronous{}
	if !sp.kind.sync {
		sched = sim.FirstSync{Inner: sim.NewRandomFair(sp.seed)}
	}
	var net *core.Network
	err = tr.timed("core.new_network", root, func() error {
		var err error
		net, err = core.NewNetwork(world, sched, endpoints)
		return err
	})
	if err != nil {
		return r, err
	}
	for i := 0; i < n; i++ {
		if err := tr.timed("core.send", root, func() error { return net.Send(i, sp.to[i], sp.payloads[i]) }); err != nil {
			return r, err
		}
	}
	var got []protocol.Received
	for r.instants < chatStepBudget && len(got) < n {
		step := tr.begin("sim.step", root)
		active, err := world.Step(sched)
		tr.end(step)
		if err != nil {
			return r, err
		}
		tr.timed("trace.bookkeeping", root, func() error { probe.record(tr, step, active); return nil })
		l.activations += len(active)
		c := tr.begin("core.collect", root)
		got = append(got, net.DeliveredSince(len(got))...)
		tr.end(c)
		r.instants++
	}
	for i := 0; i < n; i++ {
		l.bitsSent += net.Endpoint(i).SentBits()
	}
	for _, m := range got {
		r.delivered = append(r.delivered, waggle.Message{From: m.From, To: m.To, Payload: m.Payload})
	}
	return r, nil
}

// newProtocol builds the behaviours and endpoints exactly as the facade
// does for this spec's options.
func (sp chatSpec) newProtocol(sigmaLocal []float64) ([]sim.Behavior, []*protocol.Endpoint, error) {
	switch {
	case sp.n == 2 && sp.kind.sync:
		return protocol.NewSync2(protocol.Sync2Config{SigmaLocal: [2]float64{sigmaLocal[0], sigmaLocal[1]}})
	case sp.n == 2:
		return protocol.NewAsync2(protocol.Async2Config{Drift: protocol.DriftAway, SigmaLocal: [2]float64{sigmaLocal[0], sigmaLocal[1]}})
	case sp.kind.sync:
		return protocol.NewSyncN(sp.n, protocol.SyncNConfig{Naming: sp.kind.naming, SigmaLocal: sigmaLocal})
	default:
		return protocol.NewAsyncN(sp.n, protocol.AsyncNConfig{Naming: sp.kind.naming, SigmaLocal: sigmaLocal})
	}
}

// facadeFrames derives the per-robot private frames the facade gives a
// swarm with this seed: random rotation unless the robots share a
// direction (sense of direction or identifiers), random scale, right
// handed.
func facadeFrames(seed int64, n int, aligned bool) []geom.Frame {
	rng := rand.New(rand.NewSource(seed ^ 0x5747A661E))
	frames := make([]geom.Frame, n)
	for i := range frames {
		theta := 0.0
		if !aligned {
			theta = rng.Float64() * 2 * math.Pi
		}
		scale := 0.5 + rng.Float64()*2
		frames[i] = geom.NewFrame(geom.Point{}, theta, scale, geom.RightHanded)
	}
	return frames
}

// check counts the messages of sp that were not delivered intact: each
// robot's payload must reach its recipient exactly once, unchanged.
func (sp chatSpec) check(out *outcome, delivered []waggle.Message, instants int, label string) {
	got := make([]int, sp.n)
	for _, m := range delivered {
		if m.From < 0 || m.From >= sp.n {
			out.fail("%s %s n=%d: delivery from unknown robot %d", label, sp.kind.name, sp.n, m.From)
			continue
		}
		if m.To != sp.to[m.From] || !bytes.Equal(m.Payload, sp.payloads[m.From]) {
			out.fail("%s %s n=%d: robot %d's message arrived as %d->%d %x, sent to %d as %x",
				label, sp.kind.name, sp.n, m.From, m.From, m.To, m.Payload, sp.to[m.From], sp.payloads[m.From])
			got[m.From] = -1
			continue
		}
		if got[m.From] == 0 {
			got[m.From] = 1
		}
	}
	for i, g := range got {
		if g == 0 {
			out.fail("%s %s n=%d: robot %d's message not delivered after %d instants", label, sp.kind.name, sp.n, i, instants)
		}
	}
}

// chatLayers accumulates the traced run's counters.
type chatLayers struct {
	activations int
	bitsSent    int
}

func runChat(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	budget := cfg.seconds
	if cfg.traced {
		// Half the time measures the untraced reference the tracing
		// overhead is taken against, half replays it traced.
		budget /= 2
	}
	var setups, rates, instantsPerPass, lat []float64
	var bits int
	var stepTime time.Duration
	var specsRun [][]chatSpec
	var facadeRuns [][]chatRun
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < budget; p++ {
		specs := chatPass(cfg.seed, p)
		var setup time.Duration
		instants, passBits := 0, 0
		cpu0 := cpuTime()
		runs := make([]chatRun, len(specs))
		for i, sp := range specs {
			r, err := sp.runFacade()
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", sp.kind.name, sp.n, err)
			}
			out.attempted += sp.n
			sp.check(out, r.delivered, r.instants, "facade")
			setup += r.setupCPU
			stepTime += r.stepTime
			instants += r.instants
			passBits += len(r.delivered) * chatPayloadBytes * 8
			lat = append(lat, r.stepLat...)
			r.stepLat = nil
			runs[i] = r
		}
		bits += passBits
		rates = append(rates, float64(passBits)/(cpuTime()-cpu0).Seconds())
		setups = append(setups, setup.Seconds())
		instantsPerPass = append(instantsPerPass, float64(instants))
		specsRun = append(specsRun, specs)
		facadeRuns = append(facadeRuns, runs)
	}
	latS := summarize(lat)
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = latS.P50
	out.e2e["op_tail_ms"] = latS.Tail
	// Throughput is payload bits per CPU-second of a pass, median over
	// passes; the wall-clock rate is printed as chat.bits_per_s.
	out.e2e["throughput_per_cpu_s"] = median(rates)
	fmt.Fprintf(cfg.log, "chat chat.bits_per_s = %.4g bit/s (all payload bits over all stepping wall time)\n", float64(bits)/stepTime.Seconds())
	out.named = []namedValue{
		{"chat.bits_per_cpu_s", "bit/s", summarize(rates)},
		{"chat.instants_to_deliver", "count", summarize(instantsPerPass)},
		{"chat.step_ms", "ms", latS},
		{"chat.setup_s", "s", summarize(setups)},
	}
	if !cfg.traced {
		return out, nil
	}
	return out, chatTraced(cfg, out, specsRun, facadeRuns)
}

// chatTraced replays every pass of the untraced reference through the
// traced assembly, checks it reproduces the facade run exactly, and
// derives the per-layer metrics.
func chatTraced(cfg runConfig, out *outcome, specsRun [][]chatSpec, facadeRuns [][]chatRun) error {
	tr := &tracer{}
	var l chatLayers
	var facadeSteps time.Duration
	var newSwarm []float64
	delivered, instants := 0, 0
	for p, specs := range specsRun {
		for i, sp := range specs {
			ref := facadeRuns[p][i]
			r, err := sp.runTraced(tr, &l)
			if err != nil {
				return fmt.Errorf("traced %s n=%d: %w", sp.kind.name, sp.n, err)
			}
			out.attempted += sp.n
			sp.check(out, r.delivered, r.instants, "traced")
			if r.instants != ref.instants || !sameMessages(r.delivered, ref.delivered) {
				out.fail("traced %s n=%d diverged from the facade run: %d instants/%d deliveries vs %d/%d",
					sp.kind.name, sp.n, r.instants, len(r.delivered), ref.instants, len(ref.delivered))
			}
			facadeSteps += ref.stepTime
			newSwarm = append(newSwarm, ms(ref.setup))
			delivered += len(r.delivered)
			instants += r.instants
		}
	}
	ts := tr.summary()
	stepTotal := ts.total("sim.step")
	// The facade's Step is the world step plus the delivery collect.
	tracedSteps := stepTotal + ts.total("core.collect")
	out.layers = map[string]float64{
		"waggle.newswarm_ms":       median(newSwarm),
		"protocol.behavior_calls":  float64(ts.calls("protocol.behavior")),
		"protocol.behavior_s":      ts.total("protocol.behavior"),
		"protocol.behavior_share":  safeDiv(ts.total("protocol.behavior"), stepTotal),
		"sim.step_ms":              ts.meanMS("sim.step"),
		"sim.activations":          float64(l.activations),
		"sim.self_s":               ts.self("sim.step"),
		"core.bits_sent":           float64(l.bitsSent),
		"core.delivered":           float64(delivered),
		"core.instants_to_deliver": float64(instants),
		"trace.overhead_ratio":     safeDiv(tracedSteps, facadeSteps.Seconds()),
		"trace.unaccounted_share":  ts.unaccountedShare(),
		"trace.overflow_spans":     float64(ts.Overflows),
	}
	out.reconcile = ts.reconcile("chat.swarm")
	return tr.writeChrome(cfg.spans, 20000)
}

func sameMessages(a, b []waggle.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
