// Package serve is the waggle session daemon: a multi-tenant HTTP/JSON
// service hosting thousands of concurrent swarm sessions, built to
// degrade gracefully instead of collapsing under hostile traffic.
//
// Every robustness mechanism is first-class:
//
//   - Each session is pinned to one shard of a bounded worker pool, so
//     all mutations of a swarm are serialized without per-session locks
//     and a slow session cannot monopolize more than its shard.
//   - Shard queues are bounded; a full queue sheds load with 503 +
//     Retry-After instead of queueing without bound. A global token
//     bucket throttles with 429 + Retry-After before the queues fill.
//   - Requests carry deadlines; work whose deadline expired while
//     queued is skipped, not executed into the void.
//   - Sessions have lifetime step budgets, bounding both runaway
//     clients and the replay cost of resuming a checkpointed session.
//   - Idle sessions are evicted: folded into a v2 delta checkpoint
//     chain on disk and dropped from memory. The next touch loads and
//     replays the chain — the internal/ckpt round-trip guarantee makes
//     eviction invisible to clients (byte-identical observable state).
//   - Every mutation appends a delta frame to the session's chain, so
//     a crash at any instant loses at most the op in flight; restart
//     recovers every session on disk, lazily, on first touch.
//   - Shutdown stops accepting work, drains in-flight ops, and
//     checkpoints every live session, so a restarted server resumes
//     byte-identically.
//
// The session state machine is active → idle → evicted → resumed
// (resumed ≡ active again, with the resume counter bumped); see
// DESIGN.md §5h.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"waggle/internal/obs"
)

// Options configures a Server. Zero fields take the defaults below;
// Dir is required.
type Options struct {
	// Dir is the checkpoint directory: one v2 delta chain file per
	// session. Required. A restarted server pointed at the same Dir
	// recovers every session in it.
	Dir string
	// Shards is the worker-pool size sessions are pinned across
	// (default 2×GOMAXPROCS, min 4).
	Shards int
	// QueueDepth bounds each shard's task queue (default 128). A full
	// queue sheds with 503.
	QueueDepth int
	// MaxSessions bounds the total session count, live + evicted
	// (default 16384). At capacity, creates shed with 503.
	MaxSessions int
	// MaxRobots bounds a session's swarm size (default 128).
	MaxRobots int
	// StepBudget is the lifetime instant budget per session (default
	// 1e5). Exhausted budgets fail with 403 — it also bounds the input
	// log a resume has to replay.
	StepBudget int
	// MaxStepsPerRequest caps one step request (default 10000).
	MaxStepsPerRequest int
	// RequestTimeout is the per-request execution deadline (default
	// 10s): queued work whose deadline passes is skipped with 503.
	RequestTimeout time.Duration
	// IdleAfter is the idle-eviction threshold (default 2m): sessions
	// untouched this long are folded to their checkpoint chain.
	IdleAfter time.Duration
	// EvictScan is the janitor period (default 1s).
	EvictScan time.Duration
	// Rate and Burst shape the global token bucket over /v1 requests
	// (ops/sec; Rate 0 disables throttling). Over-rate traffic gets
	// 429 + Retry-After.
	Rate  float64
	Burst int
	// MaxObserveWait caps the long-poll observe and spectate waits
	// (default 30s). The HTTP write timeout must exceed it
	// (cmd/waggle-serve derives its obs.ServeOptions from this).
	MaxObserveWait time.Duration
	// Stream gives every session a waggle-stream/v1 movement stream
	// (<id>.wstream next to its checkpoint chain) and enables the
	// spectate endpoint tailing it. The stream survives eviction —
	// resuming reopens it in append mode — so spectators can follow a
	// session whether or not it is resident.
	Stream bool
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 2 * runtime.GOMAXPROCS(0)
		if o.Shards < 4 {
			o.Shards = 4
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 128
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16384
	}
	if o.MaxRobots <= 0 {
		o.MaxRobots = 128
	}
	if o.StepBudget <= 0 {
		o.StepBudget = 100_000
	}
	if o.MaxStepsPerRequest <= 0 {
		o.MaxStepsPerRequest = 10_000
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.IdleAfter <= 0 {
		o.IdleAfter = 2 * time.Minute
	}
	if o.EvictScan <= 0 {
		o.EvictScan = time.Second
	}
	if o.MaxObserveWait <= 0 {
		o.MaxObserveWait = 30 * time.Second
	}
	return o
}

// Submission failure modes, mapped to HTTP statuses by the API layer.
var (
	errDraining = errors.New("serve: server is draining")
	errBusy     = errors.New("serve: shard queue full")
	errExpired  = errors.New("serve: request deadline expired before execution")
)

// task is one unit of session work bound for a shard worker.
type task struct {
	ctx      context.Context
	fn       func()
	executed bool // set by the worker before closing done
	done     chan struct{}
}

// shard is one worker of the bounded pool.
type shard struct {
	tasks chan *task
	quit  chan struct{}
	done  chan struct{}
}

// Server is the multi-tenant session daemon. Create one with New,
// mount Handler, and stop it with Shutdown (graceful) or Abort (the
// test double of kill -9).
type Server struct {
	opts    Options
	ob      *obs.Observer
	m       metrics
	limiter *bucket

	// taskMu gates submission against draining: submitters hold the
	// read side, Shutdown/Abort take the write side to flip draining
	// and then wait out the in-flight count.
	taskMu   sync.RWMutex
	draining bool
	aborted  atomic.Bool
	inflight sync.WaitGroup
	shards   []*shard

	mu       sync.RWMutex
	sessions map[string]*session

	active  atomic.Int64 // live (non-evicted) sessions
	evicted atomic.Int64 // evicted sessions still resumable

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a Server, recovers any checkpointed sessions found in
// opts.Dir (lazily: they register as evicted and resume on first
// touch), and starts its worker pool and eviction janitor. Metrics are
// registered on ob's registry (required).
func New(opts Options, ob *obs.Observer) (*Server, error) {
	if opts.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if ob == nil {
		return nil, errors.New("serve: nil observer")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	s := &Server{
		opts:        opts,
		ob:          ob,
		m:           newMetrics(ob.Registry()),
		limiter:     newBucket(opts.Rate, opts.Burst),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.shards = make([]*shard, opts.Shards)
	for i := range s.shards {
		sh := &shard{
			tasks: make(chan *task, opts.QueueDepth),
			quit:  make(chan struct{}),
			done:  make(chan struct{}),
		}
		s.shards[i] = sh
		go s.worker(sh)
	}
	go s.janitor()
	return s, nil
}

// recover scans the checkpoint directory and registers every chain
// file as an evicted session, to be resumed on first touch.
func (s *Server) recover() error {
	ents, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("serve: scan checkpoint dir: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, ckptSuffix)
		if !validSessionID(id) {
			continue
		}
		sess := &session{
			id:    id,
			shard: shardOf(id, s.opts.Shards),
			path:  filepath.Join(s.opts.Dir, name),
		}
		if s.opts.Stream {
			sess.streamPath = filepath.Join(s.opts.Dir, id+streamSuffix)
		}
		sess.evicted.Store(true)
		sess.touch()
		s.sessions[id] = sess
		s.evicted.Add(1)
		s.m.Recovered.Inc()
	}
	s.publishGauges()
	return nil
}

// worker drains one shard's queue until quit, then finishes whatever
// is still queued (Shutdown relies on this; Abort flips `aborted`
// first so the leftovers are skipped, not executed).
func (s *Server) worker(sh *shard) {
	defer close(sh.done)
	for {
		select {
		case t := <-sh.tasks:
			s.exec(t)
		case <-sh.quit:
			for {
				select {
				case t := <-sh.tasks:
					s.exec(t)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) exec(t *task) {
	defer s.inflight.Done()
	if !s.aborted.Load() && (t.ctx == nil || t.ctx.Err() == nil) {
		t.fn()
		t.executed = true
	}
	close(t.done)
}

// run executes fn on the session's shard worker, blocking until it
// completes. It fails fast with errDraining when the server is
// shutting down, errBusy when the shard queue is full (backpressure),
// and errExpired when ctx expired before the worker got to fn.
func (s *Server) run(ctx context.Context, shardIdx int, fn func()) error {
	s.taskMu.RLock()
	if s.draining {
		s.taskMu.RUnlock()
		return errDraining
	}
	t := &task{ctx: ctx, fn: fn, done: make(chan struct{})}
	s.inflight.Add(1)
	select {
	case s.shards[shardIdx].tasks <- t:
		s.taskMu.RUnlock()
	default:
		s.inflight.Done()
		s.taskMu.RUnlock()
		return errBusy
	}
	<-t.done
	if !t.executed {
		return errExpired
	}
	return nil
}

// janitor periodically folds idle sessions into their checkpoint
// chains.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.opts.EvictScan)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.EvictIdle(s.opts.IdleAfter)
		case <-s.janitorStop:
			return
		}
	}
}

// EvictIdle evicts every live session untouched for at least olderThan
// (0 evicts everything currently live) and reports how many sessions
// it evicted. Eviction runs on each session's own shard, so it never
// races a request; a session touched between the scan and the evict
// task re-checks its idleness and stays live.
func (s *Server) EvictIdle(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	var victims []*session
	s.mu.RLock()
	for _, sess := range s.sessions {
		if !sess.evicted.Load() && sess.lastTouch().Before(cutoff) {
			victims = append(victims, sess)
		}
	}
	s.mu.RUnlock()
	n := 0
	for _, sess := range victims {
		sess := sess
		evictedNow := false
		err := s.run(context.Background(), sess.shard, func() {
			// Idleness is re-derived at execution time, not against the
			// scan-time cutoff: a request that touched the session while
			// this task sat in the shard queue has made it non-idle, and
			// the stale cutoff would drift further into the past the
			// longer the queue wait, evicting sessions that were just
			// used.
			if sess.deleted.Load() || sess.evicted.Load() ||
				sess.lastTouch().After(time.Now().Add(-olderThan)) {
				return
			}
			if err := sess.evict(); err != nil {
				// The session stays live; the next scan retries.
				return
			}
			evictedNow = true
			s.active.Add(-1)
			s.evicted.Add(1)
			s.m.Evictions.Inc()
			s.publishGauges()
		})
		// Count sessions actually evicted, not eviction tasks that ran
		// and then declined (touched in the meantime, already gone).
		if err == nil && evictedNow {
			n++
		}
	}
	return n
}

// Counts returns the number of live and evicted sessions.
func (s *Server) Counts() (active, evicted int) {
	return int(s.active.Load()), int(s.evicted.Load())
}

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool {
	s.taskMu.RLock()
	defer s.taskMu.RUnlock()
	return s.draining
}

// Shutdown degrades gracefully: new work is rejected with 503, the
// janitor stops, every in-flight and queued op drains (bounded by
// ctx), the workers exit, and every live session is folded into its
// checkpoint chain so a restarted server resumes byte-identically.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.beginDrain() {
		return nil
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	s.stopWorkers()
	// Workers are stopped and submission is closed: sessions are safe
	// to touch from here.
	var firstErr error
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sess := range s.sessions {
		if sess.deleted.Load() || sess.evicted.Load() {
			continue
		}
		if err := sess.checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("serve: final checkpoint of %s: %w", sess.id, err)
		}
		if sw := sess.swarm.Stream(); sw != nil {
			if err := sw.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: close stream of %s: %w", sess.id, err)
			}
		}
	}
	return firstErr
}

// Abort is the test double of kill -9: it stops the server without
// draining or final checkpoints. Queued-but-unexecuted tasks are
// released as skipped. On-disk chains stay valid — every acknowledged
// mutation already appended its delta — so a new Server on the same
// Dir recovers every session.
func (s *Server) Abort() {
	if !s.beginDrain() {
		return
	}
	s.aborted.Store(true)
	s.stopWorkers()
}

// beginDrain flips the draining gate; false when already draining.
func (s *Server) beginDrain() bool {
	s.taskMu.Lock()
	if s.draining {
		s.taskMu.Unlock()
		return false
	}
	s.draining = true
	s.taskMu.Unlock()
	close(s.janitorStop)
	<-s.janitorDone
	return true
}

func (s *Server) stopWorkers() {
	for _, sh := range s.shards {
		close(sh.quit)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
}

func (s *Server) publishGauges() {
	s.m.SessionsActive.Set(float64(s.active.Load()))
	s.m.SessionsEvicted.Set(float64(s.evicted.Load()))
}

const (
	ckptSuffix   = ".wck"
	streamSuffix = ".wstream"
)

// newSessionID returns 16 hex chars of crypto/rand entropy.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func validSessionID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func shardOf(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// bucket is a token-bucket rate limiter. A nil bucket (Rate 0) admits
// everything.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take admits one request, or reports how long until a token is due.
func (b *bucket) take() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
