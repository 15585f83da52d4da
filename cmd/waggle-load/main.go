// Command waggle-load drives the waggle-serve session daemon with
// thousands of simulated clients and reports what the daemon sustained:
// session-creation throughput, step-latency percentiles, eviction and
// resume counts, and how overload traffic was shed.
//
// By default it starts an in-process daemon on an ephemeral port (so
// `make bench-serve` needs no running server) and runs three phases:
//
//  1. create: N concurrent sessions (all stay alive for the whole run)
//  2. step rounds: every session is stepped each round; between rounds
//     every session is force-evicted to its checkpoint chain, so the
//     next round's traffic is create/step/evict/resume mixed — each op
//     transparently resumes the session it touches
//  3. overload: a deliberately tiny throttled server is hit with an
//     instantaneous burst to demonstrate 429/503 backpressure
//
// Results are written to -out (BENCH_serve.json).
//
//	waggle-load                      # 1000 sessions, in-process daemon
//	waggle-load -sessions 5000 -workers 256
//	waggle-load -addr 127.0.0.1:8080 # drive an external daemon
//	waggle-load -smoke               # seconds-long CI smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"waggle/internal/obs"
	"waggle/internal/serve"
)

type config struct {
	addr     string
	sessions int
	robots   int
	workers  int
	rounds   int
	steps    int
	overload int
	out      string
	smoke    bool
}

// benchResult is the BENCH_serve.json schema.
type benchResult struct {
	Sessions           int     `json:"sessions"`
	ConcurrentSessions int     `json:"concurrent_sessions"`
	Robots             int     `json:"robots"`
	Workers            int     `json:"workers"`
	StepRounds         int     `json:"step_rounds"`
	StepsPerOp         int     `json:"steps_per_op"`
	CreateSeconds      float64 `json:"create_seconds"`
	SessionsPerSec     float64 `json:"sessions_per_sec"`
	StepOps            int     `json:"step_ops"`
	StepSeconds        float64 `json:"step_seconds"`
	StepOpsPerSec      float64 `json:"step_ops_per_sec"`
	StepP50MS          float64 `json:"step_p50_ms"`
	StepP99MS          float64 `json:"step_p99_ms"`
	Evictions          int64   `json:"evictions"`
	Resumes            int64   `json:"resumes"`
	CheckpointBytes    int64   `json:"checkpoint_bytes"`
	Overload           struct {
		Requests     int `json:"requests"`
		Throttled429 int `json:"throttled_429"`
		Shed503      int `json:"shed_503"`
	} `json:"overload"`
	Errors int `json:"errors"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "address of a running waggle-serve (empty = start one in-process)")
	flag.IntVar(&cfg.sessions, "sessions", 1000, "concurrent sessions to create and keep alive")
	flag.IntVar(&cfg.robots, "robots", 4, "robots per session")
	flag.IntVar(&cfg.workers, "workers", 128, "concurrent client workers")
	flag.IntVar(&cfg.rounds, "rounds", 3, "step rounds (every session stepped once per round; evict-all between rounds)")
	flag.IntVar(&cfg.steps, "steps", 20, "instants per step request")
	flag.IntVar(&cfg.overload, "overload", 200, "requests in the instantaneous overload burst")
	flag.StringVar(&cfg.out, "out", "BENCH_serve.json", "result JSON path")
	flag.BoolVar(&cfg.smoke, "smoke", false, "seconds-long run for CI (overrides the scale flags)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "waggle-load:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.smoke {
		cfg.sessions, cfg.workers, cfg.rounds, cfg.steps, cfg.overload = 32, 8, 2, 10, 40
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: cfg.workers * 2, MaxIdleConnsPerHost: cfg.workers * 2},
		Timeout:   60 * time.Second,
	}

	base := "http://" + cfg.addr
	var inproc *serve.Server
	if cfg.addr == "" {
		dir, err := os.MkdirTemp("", "waggle-load-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, err := serve.New(serve.Options{
			Dir:         dir,
			MaxSessions: cfg.sessions + 16,
			IdleAfter:   time.Hour, // eviction is driven explicitly between rounds
			StepBudget:  cfg.rounds*cfg.steps + 1000,
		}, obs.New(1024))
		if err != nil {
			return err
		}
		addr, stopHTTP, err := obs.ServeWith("127.0.0.1:0", srv.Handler(), obs.ServeOptions{})
		if err != nil {
			return err
		}
		defer stopHTTP()
		inproc = srv
		base = fmt.Sprintf("http://%s", addr)
		fmt.Printf("waggle-load: in-process daemon on %s (dir=%s)\n", base, dir)
	}

	var result benchResult
	result.Sessions, result.Robots, result.Workers = cfg.sessions, cfg.robots, cfg.workers
	result.StepRounds, result.StepsPerOp = cfg.rounds, cfg.steps

	lc := newLoadClient(client, base)

	// Phase 1: create all sessions concurrently; they stay alive (and
	// countable) for the rest of the run.
	createStart := time.Now()
	ids := make([]string, cfg.sessions)
	forEach(cfg.workers, cfg.sessions, func(i int) {
		id, err := lc.create(cfg.robots, int64(i+1))
		if err != nil {
			lc.fail(err)
			return
		}
		ids[i] = id
	})
	result.CreateSeconds = time.Since(createStart).Seconds()
	result.SessionsPerSec = float64(cfg.sessions) / result.CreateSeconds
	fmt.Printf("waggle-load: created %d sessions in %.2fs (%.0f sessions/s)\n",
		cfg.sessions, result.CreateSeconds, result.SessionsPerSec)

	// Phase 2: step every session each round, force-evicting everything
	// between rounds so resumed-from-chain traffic dominates.
	stepStart := time.Now()
	for round := 0; round < cfg.rounds; round++ {
		if inproc != nil && round > 0 {
			evicted := inproc.EvictIdle(0)
			fmt.Printf("waggle-load: round %d: evicted %d sessions to their chains\n", round, evicted)
		}
		forEach(cfg.workers, cfg.sessions, func(i int) {
			if ids[i] == "" {
				return
			}
			if err := lc.step(ids[i], cfg.steps); err != nil {
				lc.fail(err)
			}
		})
	}
	result.StepSeconds = time.Since(stepStart).Seconds()
	result.StepOps = len(lc.samples())
	result.StepOpsPerSec = float64(result.StepOps) / result.StepSeconds

	// Every session must have survived all rounds (across evictions)
	// with exactly rounds*steps instants on its clock.
	wantTime := cfg.rounds * cfg.steps
	forEach(cfg.workers, cfg.sessions, func(i int) {
		if ids[i] == "" {
			return
		}
		tm, err := lc.observeTime(ids[i])
		if err != nil {
			lc.fail(err)
			return
		}
		if tm != wantTime {
			lc.fail(fmt.Errorf("session %s at t=%d, want %d", ids[i], tm, wantTime))
		}
	})
	result.ConcurrentSessions = lc.countSessions()
	p50, p99 := percentiles(lc.samples())
	result.StepP50MS, result.StepP99MS = p50, p99
	fmt.Printf("waggle-load: %d step ops in %.2fs (%.0f ops/s), p50 %.2fms p99 %.2fms, %d concurrent sessions\n",
		result.StepOps, result.StepSeconds, result.StepOpsPerSec, p50, p99, result.ConcurrentSessions)

	// Daemon-side counters (works for in-process and external daemons).
	var snap obs.Snapshot
	if err := lc.getJSON(base+"/metrics.json", &snap); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	result.Evictions, _ = snap.CounterValue("waggle_serve_evictions_total")
	result.Resumes, _ = snap.CounterValue("waggle_serve_resumes_total")
	result.CheckpointBytes, _ = snap.CounterValue("waggle_serve_checkpoint_bytes_total")

	// Phase 3: overload a deliberately tiny, throttled daemon with an
	// instantaneous burst; backpressure must answer 429/503, never
	// unbounded queueing.
	over, err := overloadBurst(cfg.overload)
	if err != nil {
		return err
	}
	result.Overload = over
	fmt.Printf("waggle-load: overload burst of %d requests: %d throttled (429), %d shed (503)\n",
		over.Requests, over.Throttled429, over.Shed503)

	result.Errors = lc.errorCount()
	if result.Errors > 0 {
		for _, e := range lc.errorSample() {
			fmt.Fprintf(os.Stderr, "waggle-load: error: %v\n", e)
		}
	}

	if inproc != nil {
		ctx, cancel := contextWithTimeout(30 * time.Second)
		defer cancel()
		if err := inproc.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}

	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(result); err != nil {
		return err
	}
	fmt.Printf("waggle-load: results written to %s\n", cfg.out)
	if result.Errors > 0 {
		return fmt.Errorf("%d requests failed", result.Errors)
	}
	return nil
}

// forEach fans n indexed work items across a bounded worker pool.
func forEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// percentiles returns the p50/p99 of the samples in milliseconds.
func percentiles(samples []float64) (p50, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50) * 1000, at(0.99) * 1000
}
