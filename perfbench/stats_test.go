package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.9}, {1_000_000, 0.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 0 {
			if beyond := float64(c.n) * (1 - tailPercentile(c.n)); c.n >= 20 && beyond < tailBeyond-1e-9 {
				t.Errorf("n=%d: only %.1f samples beyond the tail", c.n, beyond)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestFailedOpsMissTheLatencyLimit(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	for i := 0; i < 15; i++ {
		lat[i] = openLoopLatency(time.Time{}, time.Time{}, false)
	}
	s := summarize(lat)
	if s.Failed != 15 || s.N != 100 {
		t.Fatalf("summary counted %d failed of %d, want 15 of 100", s.Failed, s.N)
	}
	if s.TailPct != 0.9 || !math.IsInf(s.Tail, 1) {
		t.Errorf("p%g = %v: failed ops must land on the tail as missed", s.TailPct*100, s.Tail)
	}
	if got := finite(s.Tail, 1000); got != 1000 {
		t.Errorf("a missed tail reports as the limit, got %v", got)
	}
	if math.IsInf(s.P50, 1) {
		t.Errorf("median %v must still be finite with 15%% failed", s.P50)
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator ran 40 ms late (a stall on an earlier op); the op
	// itself took 10 ms. Its latency is 50 ms, not 10.
	done := due.Add(50 * time.Millisecond)
	if got := openLoopLatency(due, done, true); math.Abs(got-50) > 1e-9 {
		t.Errorf("latency from due = %v ms, want 50", got)
	}
	if got := openLoopLatency(due, done, false); !math.IsInf(got, 1) {
		t.Errorf("a failed op's latency = %v, want +Inf", got)
	}
}
