package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/obs"
	"waggle/internal/serve"
	"waggle/internal/wire"
)

// The serve-aged workload's shape. Sessions follow waggle-load's: 4
// robots on its lattice, trace on, 20-instant steps. Set-up ages every
// session to serveAgeInstants before anything is timed, because the
// per-op costs this workload isolates (chain decode, input replay, base
// rewrite, trace digest) grow with a session's history.
const (
	serveSessions    = 48
	serveBatches     = 4
	serveRobots      = 4
	serveStepsPerOp  = 20
	serveAgeInstants = 400
	// serveOpenRate is the open loop's fixed arrival rate (op/s), a
	// little below what its one client completes on a 2-CPU host with
	// the seed's code. When the host is busy the generator falls behind;
	// that shows in serve.gen_lag_ms and the wall latencies, not in the
	// per-op CPU costs the end-to-end metrics gate on.
	serveOpenRate = 50
	// serveLimit is the latency limit (ms): a failed or refused op
	// counts as this late when it lands on a reported percentile.
	serveLimit = 1000.0
)

// serve op kinds, in the mix's order.
const (
	opStep = iota
	opSend
	opObserve
	opSpectate
	opKinds
)

var opNames = [opKinds]string{"step", "send", "observe", "spectate"}

// serveMix is the op mix, out of 20: writes (step, send) beside reads
// (observe, spectate), so a write-path gain that slows reads shows.
var serveMix = [opKinds]int{8, 4, 5, 3}

// serveOp is one generated request.
type serveOp struct {
	kind    int
	session int
	from    int
	to      int
	payload []byte
}

// serveOps generates count ops from rng.
func serveOps(rng *rand.Rand, count int) []serveOp {
	total := 0
	for _, w := range serveMix {
		total += w
	}
	ops := make([]serveOp, count)
	for i := range ops {
		r := rng.Intn(total)
		k := 0
		for r >= serveMix[k] {
			r -= serveMix[k]
			k++
		}
		op := serveOp{kind: k, session: rng.Intn(serveSessions)}
		if k == opSend {
			op.from = rng.Intn(serveRobots)
			op.to = (op.from + 1 + rng.Intn(serveRobots-1)) % serveRobots
			op.payload = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
		}
		ops[i] = op
	}
	return ops
}

// opResult is one op's client-side timing.
type opResult struct {
	kind             int
	due, start, done time.Time
	cpu              time.Duration
	ok               bool
	shed             bool
}

// serveClient is the load process's view of the server: one HTTP client
// with at most nproc connections, the session ids, and the instants
// each session has been asked to step (the correctness check).
type serveClient struct {
	srv     *serve.Server
	hc      *http.Client
	base    string
	ids     []string
	clock   []atomic.Int64
	probe   *handlerProbe
	nextTag atomic.Int64
}

// opHeader tags a request so the handler probe can pair the server-side
// span with the client's.
const opHeader = "X-Perfbench-Op"

// do issues one op and reports whether it succeeded and whether the
// server shed it (429/503).
func (c *serveClient) do(op serveOp, tag int64) (ok, shed bool, err error) {
	id := c.ids[op.session]
	var method, url string
	var body any
	switch op.kind {
	case opStep:
		method, url, body = "POST", "/v1/sessions/"+id+"/step", serve.StepRequest{Steps: serveStepsPerOp}
	case opSend:
		method, url, body = "POST", "/v1/sessions/"+id+"/send", serve.SendRequest{From: op.from, To: op.to, Payload: op.payload}
	case opObserve:
		method, url = "GET", "/v1/sessions/"+id+"/observe"
	case opSpectate:
		method, url = "GET", "/v1/sessions/"+id+"/spectate"
	}
	status, raw, err := c.call(method, url, body, tag)
	if err != nil {
		return false, false, err
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		return false, true, fmt.Errorf("%s %s: shed with %d", method, url, status)
	}
	if status >= 300 {
		return false, false, fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(raw))
	}
	if op.kind == opStep {
		// Two clients may step one session concurrently, so the reply's
		// clock is only checked at the end (verifySession).
		var resp serve.StepResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return false, false, err
		}
		if resp.Stepped != serveStepsPerOp {
			return false, false, fmt.Errorf("step %s: stepped %d, want %d", id, resp.Stepped, serveStepsPerOp)
		}
		c.clock[op.session].Add(serveStepsPerOp)
	}
	return true, false, nil
}

func (c *serveClient) call(method, url string, body any, tag int64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+url, rd)
	if err != nil {
		return 0, nil, err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(opHeader, strconv.FormatInt(tag, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// handlerProbe wraps serve.Server.Handler and times every request it
// serves while on, keyed by the client's op tag.
type handlerProbe struct {
	on atomic.Bool
	mu sync.Mutex
	by map[int64]interval
}

func (p *handlerProbe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if tag, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
			p.mu.Lock()
			p.by[tag] = interval{t0, t1}
			p.mu.Unlock()
		}
	})
}

func (p *handlerProbe) get(tag int64) (interval, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	iv, ok := p.by[tag]
	return iv, ok
}

// clients is the load's concurrency: no more client goroutines (and
// connections) than CPUs, so the load generator cannot outnumber the
// server's cores.
func clients() int { return runtime.NumCPU() }

// openLoop issues ops at serveOpenRate from their due times on one
// client: an op is due at start + k/rate whether or not the previous
// ones finished, and its latency counts from then. With one op in
// flight at a time, the process CPU time across an op is what the op
// cost: client, HTTP and handler.
func (c *serveClient) openLoop(ops []serveOp, out *outcome, tags []int64) []opResult {
	res := make([]opResult, len(ops))
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Second / serveOpenRate
	for k, op := range ops {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		t, cpu := time.Now(), cpuTime()
		ok, shed, err := c.do(op, tags[k])
		res[k] = opResult{kind: op.kind, due: due, start: t, done: time.Now(), cpu: cpuTime() - cpu, ok: ok, shed: shed}
		if err != nil {
			out.fail("open loop: %v", err)
		}
		c.srv.EvictIdle(0)
	}
	return res
}

// closedLoop runs the mix back to back on every client for d and
// returns the completed op count. With traceEvery > 0 the handler probe
// is switched on for alternate slices of that length, and the op counts
// of the traced and untraced slices are returned separately (the
// tracing overhead).
func (c *serveClient) closedLoop(rng *rand.Rand, d time.Duration, out *outcome, traceEvery time.Duration) (done, shed int, plain, traced [2]float64) {
	ops := serveOps(rng, 1<<16)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < clients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				k := int(next.Add(1)-1) % len(ops)
				t0 := time.Now()
				tracedSlice := traceEvery > 0 && (t0.Sub(start)/traceEvery)%2 == 1
				ok, sh, err := c.do(ops[k], c.nextTag.Add(1))
				c.srv.EvictIdle(0)
				el := time.Since(t0).Seconds()
				mu.Lock()
				if err != nil {
					out.fail("closed loop: %v", err)
				}
				if sh {
					shed++
				}
				if ok {
					done++
				}
				if tracedSlice {
					traced[0]++
					traced[1] += el
				} else {
					plain[0]++
					plain[1] += el
				}
				mu.Unlock()
			}
		}()
	}
	if traceEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := time.Now(); t.Before(stop); t = time.Now() {
				slice := t.Sub(start) / traceEvery
				c.probe.on.Store(slice%2 == 1)
				time.Sleep(traceEvery - t.Sub(start)%traceEvery)
			}
		}()
	}
	wg.Wait()
	return done, shed, plain, traced
}

func runServe(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	dir := cfg.scratchPath("serve")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ob := obs.New(1024)
	// Every session is evicted after each op that touches it (by the
	// clients, outside the op's timing), so every later write pays for a
	// resume from its chain; the janitor is kept out of the way.
	srv, err := serve.New(serve.Options{
		Dir:         dir,
		MaxSessions: serveSessions + 16,
		IdleAfter:   time.Hour,
		Stream:      true,
	}, ob)
	if err != nil {
		return nil, err
	}
	probe := &handlerProbe{by: map[int64]interval{}}
	addr, stopHTTP, err := obs.ServeWith("127.0.0.1:0", probe.wrap(srv.Handler()), obs.ServeOptions{})
	if err != nil {
		return nil, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = stopHTTP()
	}()
	transport := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}
	defer transport.CloseIdleConnections()
	c := &serveClient{
		srv:   srv,
		hc:    &http.Client{Transport: transport, Timeout: 30 * time.Second},
		base:  "http://" + addr.String(),
		ids:   make([]string, serveSessions),
		clock: make([]atomic.Int64, serveSessions),
		probe: probe,
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: create and age the sessions in equal batches; setup_s is
	// the median CPU time of a batch.
	var setups, sessionSetups []float64
	per := serveSessions / serveBatches
	for b := 0; b < serveBatches; b++ {
		cpu0 := cpuTime()
		took, err := c.setup(rng, b*per, (b+1)*per)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		sessionSetups = append(sessionSetups, took...)
	}
	srv.EvictIdle(0)
	out.e2e["setup_s"] = median(setups)

	// Open loop at a fixed rate, then the closed-loop capacity phase.
	openSecs, closedSecs := cfg.seconds*2/3, cfg.seconds/3
	ops := serveOps(rng, int(openSecs*serveOpenRate))
	tags := make([]int64, len(ops))
	for i := range tags {
		tags[i] = c.nextTag.Add(1)
	}
	resumes0 := counter(ob, "waggle_serve_resumes_total")
	probe.on.Store(cfg.traced)
	res := c.openLoop(ops, out, tags)
	probe.on.Store(false)
	resumes := counter(ob, "waggle_serve_resumes_total") - resumes0
	closedFor := time.Duration(closedSecs * float64(time.Second))
	traceEvery := time.Duration(0)
	if cfg.traced {
		traceEvery = min(250*time.Millisecond, closedFor/4)
	}
	closedStart, closedCPU := time.Now(), cpuTime()
	closedDone, closedShed, plain, traced := c.closedLoop(rng, closedFor, out, traceEvery)
	closedWall := time.Since(closedStart).Seconds()
	closedCPUs := (cpuTime() - closedCPU).Seconds()
	probe.on.Store(false)

	lat := make([]float64, len(res))
	cost := make([]float64, len(res))
	shed := closedShed
	for i, r := range res {
		lat[i] = openLoopLatency(r.due, r.done, r.ok)
		cost[i] = math.Inf(1)
		if r.ok {
			cost[i] = ms(r.cpu)
		}
		if r.shed {
			shed++
		}
	}
	out.attempted += len(res) + int(plain[0]+traced[0])
	// The gated op time is each op's CPU cost. Its wall latency from the
	// due time (serve.op_ms below) adds whatever the host stole, which
	// moved the median by a third between runs of the same code.
	latS, costS := summarize(lat), summarize(cost)
	out.e2e["op_p50_ms"] = finite(costS.P50, serveLimit)
	out.e2e["op_tail_ms"] = finite(costS.Tail, serveLimit)
	// Throughput is closed-loop ops per CPU-second of the process, which
	// serves and loads in one: the work an op costs, whatever the host
	// steals. The wall-clock rate is printed as serve.capacity_ops_per_s.
	out.e2e["throughput_per_cpu_s"] = float64(closedDone) / closedCPUs
	out.named = []namedValue{
		{"serve.op_cpu_ms", "ms", costS},
		{"serve.op_ms", "ms", latS},
		{"serve.session_setup_s", "s", summarize(sessionSetups)},
	}
	for k := 0; k < opKinds; k++ {
		var ks []float64
		for i, r := range res {
			if r.kind == k {
				ks = append(ks, lat[i])
			}
		}
		out.named = append(out.named, namedValue{"serve." + opNames[k] + "_ms", "ms", summarize(ks)})
	}
	fmt.Fprintf(cfg.log, "serve-aged serve.capacity_ops_per_s = %.4g op/s (closed loop, %d clients, %d ops in %.2fs, %.2f CPU-s)\n",
		float64(closedDone)/closedWall, clients(), closedDone, closedWall, closedCPUs)

	// Correctness: every session's clock is what was asked for, and its
	// spectate stream rolls to its observed positions.
	for i := range c.ids {
		out.attempted++
		if err := c.verifySession(i); err != nil {
			out.fail("%v", err)
		}
	}
	if !cfg.traced {
		return out, nil
	}
	return out, c.serveLayers(cfg, out, res, tags, resumes, shed, plain, traced, dir)
}

// setup creates and ages sessions [lo, hi), spread over the clients,
// and returns each session's wall set-up time in seconds. Inputs are
// drawn from rng up front so they do not depend on the clients'
// interleaving.
func (c *serveClient) setup(rng *rand.Rand, lo, hi int) ([]float64, error) {
	seeds := make([]int64, hi)
	to := make([]int, hi)
	for i := lo; i < hi; i++ {
		seeds[i] = rng.Int63n(1 << 30)
		to[i] = 1 + rng.Intn(serveRobots-1)
	}
	took := make([]float64, hi)
	errs := make([]error, clients())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo + w; i < hi && errs[w] == nil; i += len(errs) {
				t0 := time.Now()
				errs[w] = c.age(i, seeds[i], to[i])
				took[i] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return took[lo:], nil
}

// age creates session i and steps it to serveAgeInstants.
func (c *serveClient) age(i int, seed int64, to int) error {
	positions := make([][2]float64, serveRobots)
	for r := range positions {
		positions[r] = [2]float64{float64(r%8) * 9, float64(r/8) * 9}
	}
	body := serve.CreateRequest{Positions: positions, Seed: seed, Trace: true}
	status, raw, err := c.call("POST", "/v1/sessions", body, 0)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create: status %d: %s", status, raw)
	}
	var resp serve.CreateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	c.ids[i] = resp.ID
	if _, _, err := c.do(serveOp{kind: opSend, session: i, from: 0, to: to, payload: []byte{byte(seed)}}, 0); err != nil {
		return fmt.Errorf("age %s: %w", resp.ID, err)
	}
	for t := 0; t < serveAgeInstants; t += serveStepsPerOp {
		if _, _, err := c.do(serveOp{kind: opStep, session: i}, 0); err != nil {
			return fmt.Errorf("age %s: %w", resp.ID, err)
		}
	}
	return nil
}

// verifySession checks one session's end state: its clock equals the
// instants requested, and rolling its spectate stream from the start
// lands exactly on the positions observe reports.
func (c *serveClient) verifySession(i int) error {
	id := c.ids[i]
	status, raw, err := c.call("GET", "/v1/sessions/"+id+"/observe", nil, 0)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("verify observe %s: status %d: %v", id, status, err)
	}
	var obsResp serve.ObserveResponse
	if err := json.Unmarshal(raw, &obsResp); err != nil {
		return err
	}
	if want := c.clock[i].Load(); int64(obsResp.Time) != want {
		return fmt.Errorf("session %s at t=%d, %d instants requested", id, obsResp.Time, want)
	}
	var pos [][2]float64
	offset := int64(0)
	for {
		status, raw, err := c.call("GET", "/v1/sessions/"+id+"/spectate?offset="+strconv.FormatInt(offset, 10), nil, 0)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("verify spectate %s: status %d: %v", id, status, err)
		}
		var sp serve.SpectateResponse
		if err := json.Unmarshal(raw, &sp); err != nil {
			return err
		}
		for _, rec := range sp.Records {
			if rec.Kind == "keyframe" {
				pos = append(pos[:0], rec.Positions...)
			}
			for _, m := range rec.Moves {
				if m.Robot < 0 || m.Robot >= len(pos) {
					return fmt.Errorf("session %s: stream moves robot %d before a keyframe", id, m.Robot)
				}
				pos[m.Robot] = [2]float64{m.X, m.Y}
			}
		}
		if len(sp.Records) == 0 || sp.NextOffset == offset {
			break
		}
		offset = sp.NextOffset
	}
	if len(pos) != len(obsResp.Positions) {
		return fmt.Errorf("session %s: stream rolled %d robots, observe has %d", id, len(pos), len(obsResp.Positions))
	}
	for r, p := range obsResp.Positions {
		if pos[r] != p {
			return fmt.Errorf("session %s: stream rolls robot %d to %v, observe says %v", id, r, pos[r], p)
		}
	}
	return nil
}

func counter(ob *obs.Observer, name string) int64 {
	v, _ := ob.Snapshot(false).CounterValue(name)
	return v
}

// serveLayers derives the traced run's per-layer metrics: the op
// latency split (generator lag, client and HTTP overhead, handler) from
// the spans the open loop recorded, and the resume and checkpoint path
// from replaying sampled sessions on copies of their files.
func (c *serveClient) serveLayers(cfg runConfig, out *outcome, res []opResult, tags []int64, resumes int64, shed int, plain, traced [2]float64, dir string) error {
	tr := &tracer{}
	var rtt, lag, overhead []float64
	var handler [opKinds][]float64
	for i, r := range res {
		root := tr.add("serve.op", noParent, r.due, r.done.Sub(r.due), 1)
		tr.add("gen.lag", root, r.due, r.start.Sub(r.due), 1)
		h := tr.add("client.http", root, r.start, r.done.Sub(r.start), 1)
		rtt = append(rtt, ms(r.done.Sub(r.start)))
		lag = append(lag, ms(r.start.Sub(r.due)))
		iv, ok := c.probe.get(tags[i])
		if !ok {
			continue
		}
		// The handler's closing clock read can land after the client
		// has the response in hand; clip it to the client's interval.
		if iv.b.After(r.done) {
			iv.b = r.done
		}
		if iv.a.Before(r.start) {
			iv.a = r.start
		}
		d := iv.b.Sub(iv.a)
		tr.add("serve.handler."+opNames[r.kind], h, iv.a, d, 1)
		handler[r.kind] = append(handler[r.kind], ms(d))
		overhead = append(overhead, ms(r.done.Sub(r.start)-d))
	}
	ts := tr.summary()
	line := ts.reconcile("serve.op")
	l := map[string]float64{
		"serve.rtt_p50_ms":          median(rtt),
		"serve.step_handler_ms":     median(handler[opStep]),
		"serve.send_handler_ms":     median(handler[opSend]),
		"serve.observe_handler_ms":  median(handler[opObserve]),
		"serve.spectate_handler_ms": median(handler[opSpectate]),
		"serve.client_overhead_ms":  median(overhead),
		"serve.gen_lag_ms":          median(lag),
		"serve.resume_ratio":        float64(resumes) / float64(len(res)),
		"serve.shed":                float64(shed),
		"trace.overhead_ratio":      safeDiv(safeDiv(traced[1], traced[0]), safeDiv(plain[1], plain[0])),
		"trace.unaccounted_share":   ts.unaccountedShare(),
		"trace.overflow_spans":      float64(ts.Overflows),
	}
	// Chain bytes per session, then the resume path on copies.
	var chain []float64
	for _, id := range c.ids {
		if st, err := os.Stat(filepath.Join(dir, id+".wck")); err == nil {
			chain = append(chain, float64(st.Size()))
		}
	}
	l["wire.chain_bytes"] = median(chain)
	rl, rline, err := replayResume(cfg, c.ids, dir)
	if err != nil {
		return err
	}
	for k, v := range rl {
		l[k] = v
	}
	out.layers = l
	out.reconcile = "op latency " + line + "; resume replay " + rline
	return tr.writeChrome(cfg.spans, 20000)
}

// replaySample is how many sessions the traced run replays on copies.
const replaySample = 8

// replayResume replays what the server does to an evicted session on
// its next write, on copies of sampled sessions' chain and stream
// files, with a span around each public call the server makes: resume
// (LoadCheckpoint, Restore, NewCheckpointWriter, NewStreamWriter), a
// 20-instant step with its checkpoint, a send with its checkpoint, and
// evict (checkpoint, stream close). A base save is then repeated piece
// by piece (capture, encode, atomic write) to split its cost.
func replayResume(cfg runConfig, ids []string, dir string) (map[string]float64, string, error) {
	rdir := cfg.scratchPath("replay")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return nil, "", err
	}
	tr := &tracer{}
	var newSwarm, saveBytes []float64
	replayed, saves, deltas := 0, 0, 0
	for k := 0; k < replaySample && k < len(ids); k++ {
		id := ids[k*len(ids)/replaySample]
		wck := filepath.Join(rdir, id+".wck")
		wst := filepath.Join(rdir, id+".wstream")
		if err := copyFile(filepath.Join(dir, id+".wck"), wck); err != nil {
			return nil, "", err
		}
		if err := copyFile(filepath.Join(dir, id+".wstream"), wst); err != nil {
			return nil, "", err
		}
		root := tr.begin("resume.replay", noParent)
		var ck *waggle.Checkpoint
		var res *waggle.Restored
		var w *waggle.CheckpointWriter
		steps := []struct {
			name string
			fn   func() error
		}{
			{"resume.load", func() (err error) { ck, err = waggle.LoadCheckpoint(wck); return err }},
			{"resume.restore", func() (err error) { res, err = waggle.Restore(ck); return err }},
			{"resume.writer", func() (err error) { w, err = res.Swarm.NewCheckpointWriter(wck, waggle.CodecDelta); return err }},
			{"resume.stream_reopen", func() error { _, err := res.Swarm.NewStreamWriter(wst); return err }},
			{"waggle.step", func() error {
				for i := 0; i < serveStepsPerOp; i++ {
					if err := res.Swarm.Step(); err != nil {
						return err
					}
				}
				return nil
			}},
			{"ckpt.save", func() error { return w.Save() }},
			{"waggle.send", func() error { return res.Swarm.Send(0, 1, []byte{0x5a}) }},
			{"ckpt.save", func() error { return w.Save() }},
			{"ckpt.save", func() error { return w.Save() }}, // evict's checkpoint
			{"waggle.stream_close", func() error { return res.Swarm.Stream().Close() }},
		}
		for _, s := range steps {
			if err := tr.timed(s.name, root, s.fn); err != nil {
				return nil, "", fmt.Errorf("replay %s: %s: %w", id, s.name, err)
			}
			if s.name == "ckpt.save" {
				saves++
				if w.LastSaveWasDelta() {
					deltas++
				}
				saveBytes = append(saveBytes, float64(w.LastSaveBytes()))
			}
		}
		for _, in := range ck.Inputs {
			replayed += max(in.Reps, 1)
		}
		// A base save piece by piece, to a second copy.
		var snap *waggle.Checkpoint
		var frame []byte
		pieces := []struct {
			name string
			fn   func() error
		}{
			{"ckpt.capture", func() (err error) { snap, err = res.Swarm.Checkpoint(); return err }},
			{"ckpt.encode", func() (err error) { frame, _, err = wire.EncodeBaseFrame(snap); return err }},
			{"ckpt.write", func() error { return ckpt.WriteFileAtomic(wck+".base", frame) }},
		}
		for _, s := range pieces {
			if err := tr.timed(s.name, root, s.fn); err != nil {
				return nil, "", fmt.Errorf("replay %s: %s: %w", id, s.name, err)
			}
		}
		tr.end(root)
		// Facade construction of a fresh session of the same shape.
		positions := make([]waggle.Point, serveRobots)
		for r := range positions {
			positions[r] = waggle.Point{X: float64(r%8) * 9, Y: float64(r/8) * 9}
		}
		t0 := time.Now()
		if _, err := waggle.NewSwarm(positions, waggle.WithSeed(int64(k+1)), waggle.WithTrace()); err != nil {
			return nil, "", err
		}
		newSwarm = append(newSwarm, ms(time.Since(t0)))
	}
	ts := tr.summary()
	line := ts.reconcile("resume.replay")
	sampled := float64(min(replaySample, len(ids)))
	return map[string]float64{
		"waggle.newswarm_ms":      median(newSwarm),
		"resume.load_ms":          ts.meanMS("resume.load"),
		"resume.restore_ms":       ts.meanMS("resume.restore"),
		"resume.replayed_inputs":  float64(replayed) / sampled,
		"resume.writer_ms":        ts.meanMS("resume.writer"),
		"resume.stream_reopen_ms": ts.meanMS("resume.stream_reopen"),
		"ckpt.save_ms":            ts.meanMS("ckpt.save"),
		"ckpt.delta_ratio":        float64(deltas) / float64(saves),
		"ckpt.bytes_per_save":     median(saveBytes),
		"ckpt.capture_ms":         ts.meanMS("ckpt.capture"),
		"ckpt.encode_ms":          ts.meanMS("ckpt.encode"),
		"ckpt.write_ms":           ts.meanMS("ckpt.write"),
	}, line, nil
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}
