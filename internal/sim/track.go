package sim

import (
	"errors"
	"fmt"
	"math"

	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// ErrUntrackable is returned when an observed point cannot be attributed
// to any home region — a protocol-invariant violation (some robot left
// its granular). Attribution failures wrap it in an *AttributionError
// carrying the offending point and its nearest home.
var ErrUntrackable = errors.New("sim: observed point outside every home region")

// AttributionError reports an observed point that lies outside every
// (epsilon-inflated) granular, naming the offending point and the home
// it came closest to. It unwraps to ErrUntrackable, so existing
// errors.Is checks keep working.
type AttributionError struct {
	// Point is the observed point that could not be attributed.
	Point geom.Point
	// NearestHome is the index of the closest home centre (-1 for an
	// empty tracker).
	NearestHome int
	// Dist is the distance from Point to that home's centre.
	Dist float64
	// Radius is that home's granular radius.
	Radius float64
}

// Error implements error.
func (e *AttributionError) Error() string {
	if e.NearestHome < 0 {
		return fmt.Sprintf("sim: point %v outside every home region (tracker has no homes)", e.Point)
	}
	return fmt.Sprintf("sim: point %v outside every home region (nearest home %d at distance %.6g, granular radius %.6g)",
		e.Point, e.NearestHome, e.Dist, e.Radius)
}

// Unwrap makes errors.Is(err, ErrUntrackable) hold.
func (e *AttributionError) Unwrap() error { return ErrUntrackable }

// trackerIndexMinN is the home count from which the tracker builds a
// spatial index; below it the direct scan is cheaper than grid setup.
const trackerIndexMinN = 24

// Tracker re-identifies anonymous robots across observations. The
// paper's n-robot protocols confine every robot to its granular — the
// disc around its initial ("home") position whose radius is half the
// distance to the nearest other robot. Granulars are pairwise disjoint,
// so "which home is this point nearest to, within that home's radius?"
// is an unambiguous, purely geometric identity — exactly the
// re-identification an anonymous observer can perform, with no hidden
// reliance on simulator indices.
type Tracker struct {
	homes []geom.Point
	radii []float64

	// index accelerates attribution for large swarms; nil below
	// trackerIndexMinN homes. maxReach is the largest epsilon-inflated
	// granular radius — the widest net an attribution query must cast.
	index    *spatial.Grid
	maxReach float64
}

// NewTracker builds a tracker from home positions and per-home granular
// radii (index-aligned).
func NewTracker(homes []geom.Point, radii []float64) *Tracker {
	h := make([]geom.Point, len(homes))
	copy(h, homes)
	r := make([]float64, len(radii))
	copy(r, radii)
	t := &Tracker{homes: h, radii: r}
	t.buildIndex()
	return t
}

// NewTrackerFromConfig derives granular radii (half nearest-neighbour
// distance) directly from an initial configuration. The radii come from
// the spatial index — O(n) expected instead of the all-pairs scan, with
// bit-identical values.
func NewTrackerFromConfig(homes []geom.Point) *Tracker {
	radii := spatial.NearestRadii(homes)
	for i, r := range radii {
		if math.IsInf(r, 1) {
			// A single home has no neighbour; keep the historical
			// default radius of 1/2.
			radii[i] = 0.5
		}
	}
	t := &Tracker{homes: append([]geom.Point(nil), homes...), radii: radii}
	t.buildIndex()
	return t
}

func (t *Tracker) buildIndex() {
	for _, r := range t.radii {
		if reach := inflatedRadius(r); reach > t.maxReach {
			t.maxReach = reach
		}
	}
	if len(t.homes) >= trackerIndexMinN {
		t.index = spatial.NewGrid(t.homes)
	}
}

// inflatedRadius is the attribution boundary rule: a point belongs to a
// granular of radius r when its centre distance is at most r plus the
// relative epsilon slack (matching geom.ApproxEq's scaling), so points
// *exactly on* the boundary — and within float noise of it — attribute
// to that home rather than erroring.
func inflatedRadius(r float64) float64 { return r + geom.Eps*(1+r) }

// Identify maps an observed point to the home index whose granular
// contains it. It is Attribute under its historical name.
func (t *Tracker) Identify(p geom.Point) (int, error) { return t.Attribute(p) }

// Attribute maps an observed point to the home index whose granular
// contains it, under an explicit boundary rule:
//
//   - p belongs to home i when Dist(p, home_i) <= r_i + Eps*(1+r_i) —
//     points exactly on a granular boundary are inside it.
//   - If the epsilon slack puts p inside several inflated granulars
//     (possible only for granulars within Eps of touching, since true
//     granulars are pairwise disjoint), the home with the smaller centre
//     distance wins; an exact distance tie goes to the lowest index.
//   - Otherwise attribution fails with an *AttributionError naming p and
//     its nearest home; the error unwraps to ErrUntrackable.
func (t *Tracker) Attribute(p geom.Point) (int, error) {
	bestIdx, bestDist := -1, 0.0
	nearIdx, nearDist := -1, math.Inf(1)
	consider := func(i int, d float64) {
		if d < nearDist || (d == nearDist && i < nearIdx) {
			nearIdx, nearDist = i, d
		}
		if d <= inflatedRadius(t.radii[i]) {
			if bestIdx < 0 || d < bestDist || (d == bestDist && i < bestIdx) {
				bestIdx, bestDist = i, d
			}
		}
	}
	if t.index != nil {
		t.index.VisitNeighborhood(p, t.maxReach, consider)
		if bestIdx >= 0 {
			return bestIdx, nil
		}
		// No granular near p contains it; find the true nearest home
		// (possibly outside the query window) for the error report.
		nearIdx, nearDist = t.index.NearestTo(p, -1)
	} else {
		for i, h := range t.homes {
			consider(i, p.Dist(h))
		}
		if bestIdx >= 0 {
			return bestIdx, nil
		}
	}
	err := &AttributionError{Point: p, NearestHome: nearIdx, Dist: nearDist}
	if nearIdx >= 0 {
		err.Radius = t.radii[nearIdx]
	}
	return 0, err
}

// Home returns home position i.
func (t *Tracker) Home(i int) geom.Point { return t.homes[i] }

// Radius returns granular radius i.
func (t *Tracker) Radius(i int) float64 { return t.radii[i] }

// Len returns the number of tracked homes.
func (t *Tracker) Len() int { return len(t.homes) }
