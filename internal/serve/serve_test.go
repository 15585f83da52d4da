package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"waggle/internal/obs"
)

// newTestServer builds a Server on a temp dir plus an httptest front
// end, cleaning both up with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	// Keep the janitor quiet unless the test opts in: a long idle
	// threshold means only explicit EvictIdle calls evict.
	if opts.IdleAfter == 0 {
		opts.IdleAfter = time.Hour
	}
	s, err := New(opts, obs.New(256))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// do issues one JSON request and decodes the reply into out (skipped
// when out is nil), returning the status code and headers.
func do(t *testing.T, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func createSession(t *testing.T, base string, req CreateRequest) CreateResponse {
	t.Helper()
	var resp CreateResponse
	status, _ := do(t, "POST", base+"/v1/sessions", req, &resp)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if resp.ID == "" || !validSessionID(resp.ID) {
		t.Fatalf("create: bad id %q", resp.ID)
	}
	return resp
}

func twoRobotConfig(seed int64) CreateRequest {
	return CreateRequest{
		Positions:   [][2]float64{{0, 0}, {10, 0}},
		Synchronous: true,
		Seed:        seed,
		Trace:       true,
	}
}

// TestSessionLifecycleAPI drives one session end to end: create, step,
// send, step-until-delivered, observe, delete.
func TestSessionLifecycleAPI(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	created := createSession(t, ts.URL, twoRobotConfig(7))
	if created.N != 2 || created.Protocol != "sync2" {
		t.Fatalf("created %+v", created)
	}
	sessURL := ts.URL + "/v1/sessions/" + created.ID

	var step StepResponse
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 3}, &step); status != http.StatusOK {
		t.Fatalf("step: status %d", status)
	}
	if step.Time != 3 || step.Stepped != 3 {
		t.Fatalf("step resp %+v", step)
	}

	var send SendResponse
	if status, _ := do(t, "POST", sessURL+"/send", SendRequest{From: 0, To: 1, Payload: []byte("HI")}, &send); status != http.StatusAccepted {
		t.Fatalf("send: status %d", status)
	}

	var obsv ObserveResponse
	for i := 0; i < 20; i++ {
		if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 5000}, &step); status != http.StatusOK {
			t.Fatalf("step loop: status %d", status)
		}
		if status, _ := do(t, "GET", sessURL+"/observe", nil, &obsv); status != http.StatusOK {
			t.Fatalf("observe: status %d", status)
		}
		if len(obsv.Delivered) > 0 {
			break
		}
	}
	if len(obsv.Delivered) != 1 || string(obsv.Delivered[0].Payload) != "HI" {
		t.Fatalf("delivered %+v", obsv.Delivered)
	}
	if obsv.State != "active" || obsv.Time != step.Time || len(obsv.Positions) != 2 {
		t.Fatalf("observe %+v", obsv)
	}

	var info InfoResponse
	if status, _ := do(t, "GET", sessURL, nil, &info); status != http.StatusOK || info.N != 2 {
		t.Fatalf("info %+v", info)
	}
	var list ListResponse
	if status, _ := do(t, "GET", ts.URL+"/v1/sessions", nil, &list); status != http.StatusOK || list.Active != 1 || len(list.Sessions) != 1 {
		t.Fatalf("list %+v", list)
	}

	if status, _ := do(t, "DELETE", sessURL, nil, nil); status != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if status, _ := do(t, "GET", sessURL, nil, nil); status != http.StatusNotFound {
		t.Fatal("deleted session still resolvable")
	}
}

// observeDigest fetches the full observable state including the trace
// digest.
func observeDigest(t *testing.T, sessURL string) ObserveResponse {
	t.Helper()
	var o ObserveResponse
	if status, _ := do(t, "GET", sessURL+"/observe?digest=1", nil, &o); status != http.StatusOK {
		t.Fatalf("observe: status %d", status)
	}
	return o
}

// TestEvictResumeTransparent pins the tentpole guarantee: a session
// evicted to its delta chain between every operation ends with
// observable state byte-identical (positions, time, deliveries, trace
// digest) to an unevicted control session driven through the same ops
// on a second server.
func TestEvictResumeTransparent(t *testing.T) {
	sEvict, tsEvict := newTestServer(t, Options{})
	_, tsCtl := newTestServer(t, Options{})

	cfg := CreateRequest{
		Positions: [][2]float64{{0, 0}, {8, 0}, {0, 9}, {7, 7}},
		Seed:      42,
		Trace:     true,
	}
	a := createSession(t, tsEvict.URL, cfg)
	b := createSession(t, tsCtl.URL, cfg)
	aURL := tsEvict.URL + "/v1/sessions/" + a.ID
	bURL := tsCtl.URL + "/v1/sessions/" + b.ID

	ops := []struct {
		steps   int
		send    bool
		payload string
	}{
		{steps: 50}, {send: true, payload: "alpha"}, {steps: 400},
		{send: true, payload: "beta"}, {steps: 700}, {steps: 123},
	}
	for i, op := range ops {
		// Fold the session under test into its chain before every op:
		// each op transparently resumes it.
		if n := sEvict.EvictIdle(0); n != 1 {
			t.Fatalf("op %d: evicted %d sessions, want 1", i, n)
		}
		var info InfoResponse
		if status, _ := do(t, "GET", aURL, nil, &info); status != http.StatusOK || info.State != "evicted" {
			t.Fatalf("op %d: state %q after evict", i, info.State)
		}
		for _, u := range []string{aURL, bURL} {
			if op.send {
				if status, _ := do(t, "POST", u+"/send", SendRequest{From: 0, To: 1, Payload: []byte(op.payload)}, nil); status != http.StatusAccepted {
					t.Fatalf("op %d send on %s: status %d", i, u, status)
				}
			} else {
				if status, _ := do(t, "POST", u+"/step", StepRequest{Steps: op.steps}, nil); status != http.StatusOK {
					t.Fatalf("op %d step on %s: status %d", i, u, status)
				}
			}
		}
	}

	got, want := observeDigest(t, aURL), observeDigest(t, bURL)
	if got.Resumes != int64(len(ops)) {
		t.Fatalf("resumes %d, want %d", got.Resumes, len(ops))
	}
	if want.Resumes != 0 {
		t.Fatalf("control was resumed %d times", want.Resumes)
	}
	got.ID, got.Resumes, got.State = "", 0, ""
	want.ID, want.Resumes, want.State = "", 0, ""
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("evicted run diverged from control:\n got %s\nwant %s", gj, wj)
	}
	if got.Digest == "" {
		t.Fatal("trace digest missing (trace was requested)")
	}
}

// TestBackpressureQueueFull pins that a full shard queue sheds load
// with 503 + Retry-After instead of queueing without bound. The single
// worker is parked on a blocking task and the depth-1 queue is filled,
// so the HTTP step deterministically finds no room.
func TestBackpressureQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Options{Shards: 1, QueueDepth: 1})
	created := createSession(t, ts.URL, CreateRequest{
		Positions: [][2]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}},
		Seed:      3,
	})
	sessURL := ts.URL + "/v1/sessions/" + created.ID

	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() { close(occupied); <-release })
	}()
	<-occupied // the only worker is now busy
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() {})
	}()
	for len(s.shards[0].tasks) == 0 { // and the queue is now full
		time.Sleep(time.Millisecond)
	}

	b, _ := json.Marshal(StepRequest{Steps: 1})
	resp, err := http.Post(sessURL+"/step", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step against full queue: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if v := s.m.Shed.Value(); v == 0 {
		t.Fatal("shed counter not incremented")
	}
	close(release)
	wg.Wait()
}

// TestRunDeadlineExpired pins that queued work whose deadline passed is
// skipped, surfacing errExpired instead of executing late.
func TestRunDeadlineExpired(t *testing.T) {
	s, _ := newTestServer(t, Options{Shards: 1, QueueDepth: 4})
	release := make(chan struct{})
	occupied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.run(context.Background(), 0, func() { close(occupied); <-release })
	}()
	<-occupied

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the worker can reach it
	ran := false
	errCh := make(chan error, 1)
	go func() { errCh <- s.run(ctx, 0, func() { ran = true }) }()
	time.Sleep(10 * time.Millisecond) // let it enqueue behind the blocker
	close(release)
	wg.Wait()
	if err := <-errCh; err != errExpired {
		t.Fatalf("run with expired ctx: %v, want errExpired", err)
	}
	if ran {
		t.Fatal("expired task was executed")
	}
}

// TestRateLimit429 pins token-bucket throttling: over-rate traffic
// gets 429 + Retry-After, not service collapse.
func TestRateLimit429(t *testing.T) {
	s, ts := newTestServer(t, Options{Rate: 1, Burst: 2})
	st1, _ := do(t, "GET", ts.URL+"/v1/sessions", nil, nil)
	st2, _ := do(t, "GET", ts.URL+"/v1/sessions", nil, nil)
	st3, h := do(t, "GET", ts.URL+"/v1/sessions", nil, nil)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("burst requests failed: %d %d", st1, st2)
	}
	if st3 != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", st3)
	}
	if h.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.m.Throttled.Value() == 0 {
		t.Fatal("throttled counter not incremented")
	}
}

// TestStepBudgetExhaustion pins the per-session lifetime budget.
func TestStepBudgetExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Options{StepBudget: 100})
	created := createSession(t, ts.URL, twoRobotConfig(1))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 100}, nil); status != http.StatusOK {
		t.Fatalf("in-budget step: status %d", status)
	}
	var e errResponse
	status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 1}, &e)
	if status != http.StatusForbidden {
		t.Fatalf("over-budget step: status %d (%s)", status, e.Error)
	}
}

// TestShutdownChecksAndRecovers pins graceful shutdown: after
// Shutdown, requests are rejected 503, and a new server on the same
// dir recovers the session with its state intact.
func TestShutdownCheckpointsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Dir: dir})
	created := createSession(t, ts.URL, twoRobotConfig(11))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 77}, nil); status != http.StatusOK {
		t.Fatal("step failed")
	}
	before := observeDigest(t, sessURL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if status, _ := do(t, "GET", ts.URL+"/v1/sessions", nil, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", status)
	}

	s2, ts2 := newTestServer(t, Options{Dir: dir})
	active, evicted := s2.Counts()
	if active != 0 || evicted != 1 {
		t.Fatalf("recovered counts active=%d evicted=%d", active, evicted)
	}
	after := observeDigest(t, ts2.URL+"/v1/sessions/"+created.ID)
	if after.Time != before.Time || after.Digest != before.Digest {
		t.Fatalf("recovered state diverged: before t=%d %s, after t=%d %s",
			before.Time, before.Digest, after.Time, after.Digest)
	}
	if after.Resumes != 1 {
		t.Fatalf("recovered session resumes=%d, want 1", after.Resumes)
	}
}

// TestObserveLongPoll pins that observe?min_delivered=1&wait=...
// returns early once a concurrent step delivers the pending message.
func TestObserveLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	created := createSession(t, ts.URL, twoRobotConfig(5))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	if status, _ := do(t, "POST", sessURL+"/send", SendRequest{From: 0, To: 1, Payload: []byte("x")}, nil); status != http.StatusAccepted {
		t.Fatal("send failed")
	}
	done := make(chan ObserveResponse, 1)
	go func() {
		resp, err := http.Get(sessURL + "/observe?min_delivered=1&wait=10s")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var o ObserveResponse
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&o) == nil {
			done <- o
		}
	}()
	// Step in parallel until delivery; the long-poll should return as
	// soon as the message lands.
	for i := 0; i < 40; i++ {
		select {
		case o := <-done:
			if len(o.Delivered) == 0 {
				t.Fatalf("long-poll returned without delivery: %+v", o)
			}
			return
		default:
		}
		if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: 1000}, nil); status != http.StatusOK {
			t.Fatal("step failed")
		}
	}
	select {
	case o := <-done:
		if len(o.Delivered) == 0 {
			t.Fatal("long-poll returned empty")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long-poll never returned")
	}
}

// TestValidation pins the 400 paths.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRobots: 8})
	cases := []CreateRequest{
		{},
		{Positions: [][2]float64{{0, 0}}},
		{Positions: make([][2]float64, 9)},
		{Positions: [][2]float64{{0, 0}, {1, 0}}, Protocol: "nope"},
		{Positions: [][2]float64{{0, 0}, {1, 0}}, Engine: "warp"},
		{Positions: [][2]float64{{0, 0}, {1, 0}}, Scheduler: "starver"},
		{Positions: [][2]float64{{0, 0}, {1, 0}}, Sigma: -1},
	}
	for i, c := range cases {
		if status, _ := do(t, "POST", ts.URL+"/v1/sessions", c, nil); status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, status)
		}
	}
	created := createSession(t, ts.URL, twoRobotConfig(1))
	sessURL := ts.URL + "/v1/sessions/" + created.ID
	if status, _ := do(t, "POST", sessURL+"/step", StepRequest{Steps: -4}, nil); status != http.StatusBadRequest {
		t.Fatal("negative steps accepted")
	}
	if status, _ := do(t, "POST", sessURL+"/send", SendRequest{From: 9, To: 1}, nil); status != http.StatusBadRequest {
		t.Fatal("out-of-range sender accepted")
	}
	if status, _ := do(t, "GET", ts.URL+"/v1/sessions/ffffffffffffffff", nil, nil); status != http.StatusNotFound {
		t.Fatal("unknown session not 404")
	}
}

// TestResumedWritesAppendDeltas pins that a write op on an evicted
// session continues the session's checkpoint chain: the resumed
// writer's save appends a delta frame instead of rewriting a base.
func TestResumedWritesAppendDeltas(t *testing.T) {
	srv, ts := newTestServer(t, Options{Stream: true})
	a := createSession(t, ts.URL, CreateRequest{
		Positions: [][2]float64{{0, 0}, {8, 0}, {0, 9}, {7, 7}},
		Seed:      5,
		Trace:     true,
	})
	url := ts.URL + "/v1/sessions/" + a.ID
	srv.mu.RLock()
	sess := srv.sessions[a.ID]
	srv.mu.RUnlock()
	chain := 0
	for i := 0; i < 6; i++ {
		if n := srv.EvictIdle(0); n != 1 {
			t.Fatalf("op %d: evicted %d sessions, want 1", i, n)
		}
		if status, _ := do(t, "POST", url+"/step", StepRequest{Steps: 20}, nil); status != http.StatusOK {
			t.Fatalf("op %d: step status %d", i, status)
		}
		var delta bool
		var got int
		// Read the writer on its shard worker, which owns it.
		if err := srv.run(context.Background(), sess.shard, func() {
			delta, got = sess.writer.LastSaveWasDelta(), sess.writer.ChainLen()
		}); err != nil {
			t.Fatal(err)
		}
		if !delta {
			t.Fatalf("op %d: the resumed session's save rewrote a base", i)
		}
		// Each round appends the evict's delta and the step's delta.
		if chain += 2; got != chain {
			t.Fatalf("op %d: chain length %d, want %d", i, got, chain)
		}
	}
}
