// Package retry is the shared retry discipline of the waggle CLIs and
// the queen/worker dispatch protocol: capped exponential backoff with
// seeded jitter, plus the two halves of Retry-After handling — parsing
// a server's advertised delay on the client side and formatting one on
// the server side — so both sides of a backpressured exchange agree on
// the rounding.
//
// The jitter stream is an explicit seeded source, never the global
// rand: identical seeds produce identical delay sequences, which is
// what makes backoff behavior unit-testable and keeps the queen's
// requeue schedule reproducible in its tests.
package retry

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// Defaults applied by Policy.withDefaults for zero fields.
const (
	DefaultAttempts   = 5
	DefaultBase       = 50 * time.Millisecond
	DefaultCap        = 2 * time.Second
	DefaultMultiplier = 2.0
	DefaultJitter     = 0.5
)

// Policy describes a capped jittered exponential backoff. The zero
// value of every field selects the default above, so callers only
// state what they need changed.
type Policy struct {
	// MaxAttempts is the total number of tries of the operation
	// (first try included). Negative disables retrying (one try).
	MaxAttempts int
	// Base is the pre-jitter delay before the second try; each further
	// delay multiplies by Multiplier, saturating at Cap.
	Base time.Duration
	// Cap bounds every delay, computed or server-advertised.
	Cap time.Duration
	// Multiplier is the per-attempt growth factor (must be ≥ 1 when
	// set).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized: the
	// slept delay is drawn uniformly from [d·(1−Jitter), d]. 0 keeps
	// full determinism without a seed; 1 is full jitter.
	Jitter float64
	// jitterSet distinguishes an explicit Jitter of 0 from the unset
	// zero value (see WithoutJitter).
	jitterSet bool
}

// WithoutJitter returns the policy with jitter explicitly disabled —
// the zero Jitter field otherwise means "default" like every other
// field.
func (p Policy) WithoutJitter() Policy {
	p.Jitter = 0
	p.jitterSet = true
	return p
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultAttempts
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Cap <= 0 {
		p.Cap = DefaultCap
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.Jitter == 0 && !p.jitterSet {
		p.Jitter = DefaultJitter
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Delay computes the pre-jitter backoff before try attempt+2 (attempt
// is 0-based: Delay(0) follows the first failure): Base·Multiplier^attempt,
// saturating at Cap.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.Cap) {
			return p.Cap
		}
	}
	if d > float64(p.Cap) {
		return p.Cap
	}
	return time.Duration(d)
}

// JitteredDelay is Delay with the policy's jitter drawn from rng — for
// callers that schedule retries on their own timeline (a work queue's
// not-before stamp) rather than sleeping through Do.
func (p Policy) JitteredDelay(rng *rand.Rand, attempt int) time.Duration {
	p = p.withDefaults()
	d := p.Delay(attempt)
	if p.Jitter > 0 {
		lo := float64(d) * (1 - p.Jitter)
		d = time.Duration(lo + rng.Float64()*(float64(d)-lo))
	}
	return d
}

// Backoff is the stateful form of a Policy: one failed operation being
// retried, with its own seeded jitter stream.
type Backoff struct {
	p       Policy
	rng     *rand.Rand
	attempt int
}

// NewBackoff starts a backoff under p, with jitter drawn from a stream
// seeded by seed.
func NewBackoff(p Policy, seed int64) *Backoff {
	return &Backoff{p: p.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// Next consumes one failure and returns the jittered delay to sleep
// before the next try, or false when the policy's attempts are
// exhausted.
func (b *Backoff) Next() (time.Duration, bool) {
	return b.NextHint(0)
}

// NextHint is Next with a server-advertised delay (a parsed
// Retry-After): a positive hint replaces the computed exponential
// delay — the server knows its own load better than our schedule —
// but stays clamped to the policy cap and is never jittered.
func (b *Backoff) NextHint(hint time.Duration) (time.Duration, bool) {
	if b.attempt+1 >= b.p.MaxAttempts {
		b.attempt++
		return 0, false
	}
	d := b.p.Delay(b.attempt)
	b.attempt++
	if hint > 0 {
		if hint > b.p.Cap {
			hint = b.p.Cap
		}
		return hint, true
	}
	if b.p.Jitter > 0 {
		lo := float64(d) * (1 - b.p.Jitter)
		d = time.Duration(lo + b.rng.Float64()*(float64(d)-lo))
	}
	return d, true
}

// hintedError marks a retryable failure carrying a server-advertised
// delay.
type hintedError struct {
	err   error
	after time.Duration
}

func (e *hintedError) Error() string { return e.err.Error() }
func (e *hintedError) Unwrap() error { return e.err }

// Hint wraps a retryable error with the delay the server advertised
// (Retry-After); Do honors it via NextHint.
func Hint(err error, after time.Duration) error {
	return &hintedError{err: err, after: after}
}

// permanentError marks a failure that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an error so Do returns it immediately instead of
// retrying.
func Permanent(err error) error { return &permanentError{err: err} }

// Do runs f until it succeeds, returns a Permanent error, or the
// policy's attempts are exhausted (the last error is returned wrapped
// with the attempt count). Errors wrapped with Hint shorten or stretch
// the next delay to the server's advertised wait. sleep is injectable
// for tests; nil selects time.Sleep. The seed keys the jitter stream.
func Do(p Policy, seed int64, sleep func(time.Duration), f func(attempt int) error) error {
	if sleep == nil {
		sleep = time.Sleep
	}
	b := NewBackoff(p, seed)
	for {
		err := f(b.attempt)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		var hint time.Duration
		var he *hintedError
		if errors.As(err, &he) {
			hint = he.after
		}
		d, ok := b.NextHint(hint)
		if !ok {
			return fmt.Errorf("retry: %d attempts exhausted: %w", b.attempt, err)
		}
		sleep(d)
	}
}

// ParseRetryAfter parses the delay-seconds form of a Retry-After
// header value: ASCII digits only (RFC 9110 delay-seconds is 1*DIGIT,
// so a sign is malformed). A delay too long for a time.Duration
// saturates at the largest one instead of wrapping into a short or
// negative wait; NextHint clamps it to the policy cap either way. The
// HTTP-date form (nothing in this codebase emits it) and malformed
// values report false.
func ParseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	const maxSecs = int64(math.MaxInt64 / time.Second)
	var secs int64
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if secs <= maxSecs {
			secs = secs*10 + int64(c-'0')
		}
	}
	if secs > maxSecs {
		return math.MaxInt64, true
	}
	return time.Duration(secs) * time.Second, true
}

// CeilSeconds formats a delay as a Retry-After value: whole seconds,
// rounded up so a client that sleeps the advertised time never comes
// back early (a zero or negative delay still advertises one second —
// Retry-After: 0 invites an immediate stampede).
func CeilSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
