package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile backed by fewer is one outlier's value.
const tailBeyond = 10

// tailLadder is the set of percentiles a tail is chosen from. It stops
// at p90: on a shared 2-CPU host, p99 of the same code moves by more
// than any useful regression bound from one run to the next, so it
// cannot gate a change.
var tailLadder = []float64{0.5, 0.9}

// tailPercentile returns the highest percentile in tailLadder that has
// at least tailBeyond of n samples beyond it, or 0.5 when n is too small
// for any of them.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// The epsilon keeps 1-0.9 (0.0999…) from disqualifying p90 at
		// exactly 100 samples.
		if float64(n)*(1-p) >= tailBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the p-quantile of sorted by linear interpolation
// between closest ranks (the rule of Python's statistics.quantiles with
// method="inclusive"). sorted must be ascending; +Inf entries (failed
// ops) sort last and win any quantile that reaches them.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// summary is the spread of one sample set: median, quartiles, the tail
// percentile chosen by tailPercentile, and the sample count.
type summary struct {
	N         int
	P25, P50  float64
	P75, Tail float64
	TailPct   float64
	Failed    int
}

// summarize sorts a copy of samples and computes its summary. Failed
// ops must already be in samples as +Inf so they count against every
// latency percentile they reach.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := summary{N: len(s)}
	if len(s) == 0 {
		return sum
	}
	for _, v := range s {
		if math.IsInf(v, 1) {
			sum.Failed++
		}
	}
	sum.P25 = quantile(s, 0.25)
	sum.P50 = quantile(s, 0.5)
	sum.P75 = quantile(s, 0.75)
	sum.TailPct = tailPercentile(len(s))
	sum.Tail = quantile(s, sum.TailPct)
	return sum
}

// median is the 0.5 quantile of samples (NaN when empty).
func median(samples []float64) float64 {
	return summarize(samples).P50
}

// openLoopLatency is the latency of an op in an open loop: from the
// instant it was due to be sent, not from when it was actually sent, so
// a stall is charged to every op it delayed. A failed op missed every
// latency limit and is +Inf.
func openLoopLatency(due, done time.Time, ok bool) float64 {
	if !ok {
		return math.Inf(1)
	}
	return ms(done.Sub(due))
}

// cpuTime is the CPU time the whole process has used so far, user and
// system, over every thread. On a shared VM it excludes the time the
// host stole from the guest's CPUs, which wall time does not: under a
// busy host, steal reached a third of the benchmark's wall time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// finite replaces +Inf (a failed op) by limit, for reporting a
// percentile that landed on failures as a finite number. JSON cannot
// carry infinities.
func finite(v, limit float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return limit
	}
	return v
}
