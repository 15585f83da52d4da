package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	t0 := time.Unix(0, 0)
	root := tr.add("bench.root", noParent, t0, 100*time.Millisecond, 1)
	step := tr.add("sim.step", root, t0, 60*time.Millisecond, 1)
	tr.add("protocol.behavior", step, t0, 45*time.Millisecond, 300)
	tr.add("core.collect", root, t0, 10*time.Millisecond, 1)
	ts := tr.summary()
	for name, want := range map[string]time.Duration{
		"bench.root":        30 * time.Millisecond,
		"sim.step":          15 * time.Millisecond,
		"protocol.behavior": 45 * time.Millisecond,
		"core.collect":      10 * time.Millisecond,
	} {
		if got := ts.ByName[name].Self; got != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
	if ts.calls("protocol.behavior") != 300 {
		t.Errorf("aggregate span folded %d calls, want 300", ts.calls("protocol.behavior"))
	}
	if got := ts.unaccountedShare(); got < 0.2999 || got > 0.3001 {
		t.Errorf("unaccounted share = %v, want 0.3", got)
	}
	line := ts.reconcile("bench.root")
	if strings.Contains(line, "FLAGGED") || ts.Overflows != 0 {
		t.Errorf("a consistent trace must reconcile: %s", line)
	}
	for _, part := range []string{"core 0.010s", "protocol 0.045s", "sim 0.015s", "unaccounted 0.030s"} {
		if !strings.Contains(line, part) {
			t.Errorf("reconciliation %q lacks %q", line, part)
		}
	}
}

func TestChildSpansExceedingParentAreFlagged(t *testing.T) {
	tr := &tracer{}
	root := tr.add("bench.root", noParent, time.Time{}, 10*time.Millisecond, 1)
	tr.add("sim.step", root, time.Time{}, 8*time.Millisecond, 1)
	tr.add("sim.step", root, time.Time{}, 8*time.Millisecond, 1)
	ts := tr.summary()
	if ts.Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", ts.Overflows)
	}
	if line := ts.reconcile("bench.root"); !strings.Contains(line, "FLAGGED") {
		t.Errorf("an overflowing trace must be flagged: %s", line)
	}
}

func TestBeginEndChargesParent(t *testing.T) {
	tr := &tracer{}
	root := tr.begin("bench.root", noParent)
	child := tr.begin("sim.step", root)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	ts := tr.summary()
	if ts.Overflows != 0 || ts.ByName["sim.step"].Total < 2*time.Millisecond {
		t.Fatalf("child span %v, overflows %d", ts.ByName["sim.step"].Total, ts.Overflows)
	}
	if self, total := ts.ByName["bench.root"].Self, ts.ByName["bench.root"].Total; self != total-ts.ByName["sim.step"].Total {
		t.Errorf("root self %v != total %v - child", self, total)
	}
}

func TestUnionLengthCountsOverlapOnce(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	iv := []interval{{at(10), at(20)}, {at(0), at(5)}, {at(15), at(30)}, {at(40), at(41)}, {at(16), at(18)}}
	if got, want := unionLength(iv), 26*time.Millisecond; got != want {
		t.Errorf("union = %v, want %v", got, want)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union must be 0")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints from drifting apart.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}
