package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"waggle/internal/geom"
	"waggle/internal/sim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no instrumentation). An
// aggregate span folds many calls that ran inside one parent — the
// per-robot behaviour calls of one instant — into one entry whose
// duration is the wall time they covered.
type span struct {
	name   string
	parent int
	start  time.Time
	dur    time.Duration
	// cover is how much of this span its children cover; self time is
	// dur - cover.
	cover time.Duration
	calls int
}

// tracer keeps the spans of a traced run in memory. It is safe for
// concurrent use: serve's handler spans are recorded on server
// goroutines while clients record theirs.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// noParent marks a root span.
const noParent = -1

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now(), calls: 1})
	return len(t.spans) - 1
}

// end closes span id and charges its duration to its parent's cover.
func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.dur = now.Sub(s.start)
	if s.parent != noParent {
		t.spans[s.parent].cover += s.dur
	}
}

// add records a finished span (or an aggregate of calls that together
// covered dur) under parent.
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration, calls int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, dur: dur, calls: calls})
	if parent != noParent {
		t.spans[parent].cover += dur
	}
	return len(t.spans) - 1
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	return err
}

// rollup is the per-name total of a trace.
type rollup struct {
	Spans int
	Calls int
	Total time.Duration
	Self  time.Duration
}

// traceSummary reconciles a trace: per-name totals and self times, the
// root total the self times must add up to, and the spans whose
// children cover more than the span itself (a broken parent link or an
// overlap the tracer cannot attribute).
type traceSummary struct {
	ByName    map[string]*rollup
	RootTotal time.Duration
	RootSelf  time.Duration
	Overflows int
}

func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := traceSummary{ByName: map[string]*rollup{}}
	for _, s := range t.spans {
		r := out.ByName[s.name]
		if r == nil {
			r = &rollup{}
			out.ByName[s.name] = r
		}
		self := s.dur - s.cover
		if self < 0 {
			out.Overflows++
			self = 0
		}
		r.Spans++
		r.Calls += s.calls
		r.Total += s.dur
		r.Self += self
		if s.parent == noParent {
			out.RootTotal += s.dur
			out.RootSelf += self
		}
	}
	return out
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer; the root spans' self time is the
// part of the end-to-end time no child span covers, and goes to
// "unaccounted".
func (ts traceSummary) layerSelf(rootNames ...string) map[string]time.Duration {
	roots := map[string]bool{}
	for _, n := range rootNames {
		roots[n] = true
	}
	out := map[string]time.Duration{}
	for name, r := range ts.ByName {
		layer := layerOf(name)
		if roots[name] {
			layer = "unaccounted"
		}
		out[layer] += r.Self
	}
	return out
}

// reconcile renders the per-layer self-time split of the traced run and
// checks that it adds up to the root total. The sum holds by
// construction when every span's parent link is right, so a mismatch or
// an overflow is flagged on the line: the split is then untrustworthy.
func (ts traceSummary) reconcile(rootNames ...string) string {
	layers := ts.layerSelf(rootNames...)
	names := make([]string, 0, len(layers))
	var sum time.Duration
	for name, d := range layers {
		names = append(names, name)
		sum += d
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "end-to-end %.3fs =", ts.RootTotal.Seconds())
	for i, name := range names {
		if i > 0 {
			b.WriteString(" +")
		}
		fmt.Fprintf(&b, " %s %.3fs", name, layers[name].Seconds())
	}
	diff := sum - ts.RootTotal
	if diff < 0 {
		diff = -diff
	}
	if ts.Overflows > 0 {
		fmt.Fprintf(&b, " (FLAGGED: %d spans whose children exceed them)", ts.Overflows)
	}
	if diff > time.Microsecond*time.Duration(1+len(ts.ByName)) {
		fmt.Fprintf(&b, " (FLAGGED: the parts miss the total by %v)", diff)
	}
	return b.String()
}

// unaccountedShare is the part of the root total no child span covers.
func (ts traceSummary) unaccountedShare() float64 {
	if ts.RootTotal <= 0 {
		return 0
	}
	return ts.RootSelf.Seconds() / ts.RootTotal.Seconds()
}

// self returns the self time of name in seconds (0 when absent).
func (ts traceSummary) self(name string) float64 {
	if r := ts.ByName[name]; r != nil {
		return r.Self.Seconds()
	}
	return 0
}

// total returns the summed duration of name's spans in seconds.
func (ts traceSummary) total(name string) float64 {
	if r := ts.ByName[name]; r != nil {
		return r.Total.Seconds()
	}
	return 0
}

// meanMS returns the mean duration of name's spans in milliseconds.
func (ts traceSummary) meanMS(name string) float64 {
	if r := ts.ByName[name]; r != nil && r.Spans > 0 {
		return r.Total.Seconds() * 1000 / float64(r.Spans)
	}
	return 0
}

// calls returns how many calls name's spans folded.
func (ts traceSummary) calls(name string) int {
	if r := ts.ByName[name]; r != nil {
		return r.Calls
	}
	return 0
}

// writeChrome writes up to limit spans as Chrome trace-event JSON
// (complete "X" events; parents are nested by time on one track per
// root), viewable in any trace viewer.
func (t *tracer) writeChrome(path string, limit int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	epoch := t.spans[0].start
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	var evs []event
	for i, s := range t.spans {
		if i >= limit {
			break
		}
		root := i
		for t.spans[root].parent != noParent {
			root = t.spans[root].parent
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: 1, TID: root % 64,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// behaviorProbe times every behaviour call of a world from outside: each
// robot's behaviour is wrapped, and the wrapper stamps the call into
// the robot's own slot. A robot is activated at most once per instant
// and its behaviour runs on one worker, so the slots need no lock; the
// stepping goroutine reads them after World.Step has joined its
// workers.
type behaviorProbe struct {
	start, end []time.Time
	iv         []interval
}

type interval struct{ a, b time.Time }

func newBehaviorProbe(n int) *behaviorProbe {
	return &behaviorProbe{start: make([]time.Time, n), end: make([]time.Time, n)}
}

// probedBehavior is one robot's wrapped behaviour.
type probedBehavior struct {
	inner sim.Behavior
	p     *behaviorProbe
	i     int
}

func (b probedBehavior) Step(v sim.View) geom.Point {
	b.p.start[b.i] = time.Now()
	dest := b.inner.Step(v)
	b.p.end[b.i] = time.Now()
	return dest
}

// wrap returns robot i's behaviour wrapped by the probe.
func (p *behaviorProbe) wrap(i int, inner sim.Behavior) sim.Behavior {
	return probedBehavior{inner: inner, p: p, i: i}
}

// record adds the active robots' behaviour calls of the last instant
// under parent as one aggregate span: the wall time they covered
// (overlapping calls on parallel workers count once) and the call
// count.
func (p *behaviorProbe) record(tr *tracer, parent int, active []int) {
	if len(active) == 0 {
		return
	}
	p.iv = p.iv[:0]
	for _, i := range active {
		p.iv = append(p.iv, interval{p.start[i], p.end[i]})
	}
	tr.add("protocol.behavior", parent, p.start[active[0]], unionLength(p.iv), len(active))
}

// unionLength returns the total length of the union of the intervals.
// It reorders iv.
func unionLength(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a.Before(iv[j].a) })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	return total + cur.b.Sub(cur.a)
}
