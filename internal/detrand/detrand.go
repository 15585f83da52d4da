// Package detrand wraps math/rand sources with a draw counter, so a
// seeded stream's position can be captured as (seed, draws) in a
// checkpoint and verified after a deterministic replay. Delegation is
// transparent: a rand.Rand built over a CountingSource produces the
// exact values of one built over rand.NewSource with the same seed —
// the counter never perturbs the stream it counts.
package detrand

import "math/rand"

// CountingSource is a rand.Source64 that counts every draw.
type CountingSource struct {
	src   rand.Source64
	draws uint64
}

// New returns a counting source seeded with seed and a rand.Rand over
// it.
func New(seed int64) (*CountingSource, *rand.Rand) {
	cs := &CountingSource{src: newSource64(seed)}
	return cs, rand.New(cs)
}

// newSource64 builds the standard seeded source. rand.NewSource's
// concrete type has implemented Source64 since Go 1.8; the assertion
// documents the dependency instead of hiding it behind a fallback that
// would silently change the stream.
func newSource64(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

// Int63 implements rand.Source.
func (c *CountingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

// Uint64 implements rand.Source64.
func (c *CountingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed implements rand.Source, resetting the draw counter.
func (c *CountingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// Draws returns how many values have been drawn since seeding.
func (c *CountingSource) Draws() uint64 { return c.draws }
