package retry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestDelaySaturatesAtCap pins the pre-jitter schedule: exponential
// growth from Base by Multiplier, saturating exactly at Cap.
func TestDelaySaturatesAtCap(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Multiplier: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestBackoffDeterministicSeed: identical seeds produce identical
// jittered delay sequences; different seeds diverge.
func TestBackoffDeterministicSeed(t *testing.T) {
	p := Policy{MaxAttempts: 8, Base: 10 * time.Millisecond, Cap: time.Second, Jitter: 0.5}
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(p, seed)
		var out []time.Duration
		for {
			d, ok := b.Next()
			if !ok {
				return out
			}
			out = append(out, d)
		}
	}
	a, b := seq(7), seq(7)
	if len(a) != 7 { // MaxAttempts=8 total tries → 7 sleeps
		t.Fatalf("got %d delays, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 delay %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical jitter streams")
	}
}

// TestJitterBounds: every jittered delay lands in [d·(1−J), d] and
// never exceeds the cap.
func TestJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 100, Base: 40 * time.Millisecond, Cap: 300 * time.Millisecond, Jitter: 0.5}
	b := NewBackoff(p, 1)
	for i := 0; ; i++ {
		d, ok := b.Next()
		if !ok {
			break
		}
		full := p.Delay(i)
		lo := time.Duration(float64(full) * 0.5)
		if d < lo || d > full {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, full)
		}
		if d > p.Cap {
			t.Fatalf("delay %d = %v exceeds cap %v", i, d, p.Cap)
		}
	}
}

// TestJitteredDelayBounds: the scheduler-side jitter helper obeys the
// same [d·(1−J), d] window as Backoff, deterministically per rng.
func TestJitteredDelayBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second, Jitter: 0.5}
	rng := rand.New(rand.NewSource(11))
	for attempt := 0; attempt < 10; attempt++ {
		full := p.Delay(attempt)
		d := p.JitteredDelay(rng, attempt)
		if lo := time.Duration(float64(full) * 0.5); d < lo || d > full {
			t.Fatalf("JitteredDelay(%d) = %v outside [%v, %v]", attempt, d, lo, full)
		}
	}
	a := Policy{Base: time.Second}.WithoutJitter().JitteredDelay(rng, 0)
	if a != time.Second {
		t.Fatalf("jitter-free JitteredDelay = %v, want 1s", a)
	}
}

// TestNextHintHonorsRetryAfter: a server hint replaces the computed
// delay, is clamped to the cap, and is not jittered.
func TestNextHintHonorsRetryAfter(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: time.Millisecond, Cap: 2 * time.Second, Jitter: 1}
	b := NewBackoff(p, 3)
	if d, ok := b.NextHint(700 * time.Millisecond); !ok || d != 700*time.Millisecond {
		t.Fatalf("hint not honored: got %v ok=%v", d, ok)
	}
	if d, ok := b.NextHint(time.Minute); !ok || d != 2*time.Second {
		t.Fatalf("hint not capped: got %v ok=%v", d, ok)
	}
	if d, ok := b.Next(); !ok || d > p.Cap {
		t.Fatalf("post-hint delay broken: got %v ok=%v", d, ok)
	}
}

// TestDoRetriesUntilSuccess: Do sleeps the jittered schedule and stops
// on the first success.
func TestDoRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := Do(Policy{MaxAttempts: 5, Base: 10 * time.Millisecond}.WithoutJitter(), 1,
		func(d time.Duration) { slept = append(slept, d) },
		func(attempt int) error {
			calls++
			if attempt < 2 {
				return fmt.Errorf("transient %d", attempt)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("f called %d times, want 3", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

// TestDoPermanentStopsImmediately: a Permanent error is returned
// unwrapped after one try, with no sleeps.
func TestDoPermanentStopsImmediately(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Do(Policy{MaxAttempts: 5}, 1,
		func(time.Duration) { t.Fatal("slept on a permanent error") },
		func(int) error { calls++; return Permanent(boom) })
	if !errors.Is(err, boom) || err != boom {
		t.Fatalf("got %v, want the unwrapped permanent error", err)
	}
	if calls != 1 {
		t.Fatalf("f called %d times, want 1", calls)
	}
}

// TestDoExhaustionWrapsLastError: attempts exhausted → the last error
// is preserved through the wrap.
func TestDoExhaustionWrapsLastError(t *testing.T) {
	boom := errors.New("still down")
	calls := 0
	err := Do(Policy{MaxAttempts: 3, Base: time.Microsecond}, 1,
		func(time.Duration) {},
		func(int) error { calls++; return boom })
	if calls != 3 {
		t.Fatalf("f called %d times, want 3", calls)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("exhaustion error %v does not wrap the last failure", err)
	}
}

// TestDoHintedSleep: a Hint error overrides the computed delay.
func TestDoHintedSleep(t *testing.T) {
	var slept []time.Duration
	err := Do(Policy{MaxAttempts: 3, Base: time.Millisecond, Cap: time.Minute}, 1,
		func(d time.Duration) { slept = append(slept, d) },
		func(attempt int) error {
			if attempt == 0 {
				return Hint(errors.New("backpressured"), 250*time.Millisecond)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(slept) != 1 || slept[0] != 250*time.Millisecond {
		t.Fatalf("slept %v, want [250ms]", slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{"1", time.Second, true},
		{"30", 30 * time.Second, true},
		{"-1", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false},
		// delay-seconds is 1*DIGIT: no sign, no spaces.
		{"+5", 0, false},
		{" 5", 0, false},
		{"5 ", 0, false},
		// Largest whole-second delay a Duration holds, then the first
		// past it: that one and anything longer saturate rather than
		// wrap (9223372037 used to parse negative, 18446744074 to
		// 290.4ms — a "wait ~585 years" turned into a stampede).
		{"9223372036", 9223372036 * time.Second, true},
		{"9223372037", math.MaxInt64, true},
		{"18446744074", math.MaxInt64, true},
		{"99999999999999999999999999", math.MaxInt64, true},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParseRetryAfter(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// FuzzParseRetryAfter: whatever a server sends, an accepted delay is
// never negative, and equals secs·1s whenever that fits a Duration.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"", "0", "30", "-1", "+5", "9223372036", "9223372037", "18446744074", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := ParseRetryAfter(v)
		if !ok {
			if d != 0 {
				t.Fatalf("ParseRetryAfter(%q) rejected the value but returned %v", v, d)
			}
			return
		}
		if d < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, a negative delay", v, d)
		}
		secs, err := strconv.ParseInt(v, 10, 64)
		if err == nil && secs >= 0 && secs <= math.MaxInt64/int64(time.Second) {
			if want := time.Duration(secs) * time.Second; d != want {
				t.Fatalf("ParseRetryAfter(%q) = %v, want %v", v, d, want)
			}
		}
	})
}

// TestCeilSeconds: format rounds up and never advertises zero, so a
// client sleeping the advertised value never returns early.
func TestCeilSeconds(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{time.Second + time.Millisecond, "2"},
		{2500 * time.Millisecond, "3"},
	}
	for _, c := range cases {
		if got := CeilSeconds(c.in); got != c.want {
			t.Fatalf("CeilSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
