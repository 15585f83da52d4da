// Package protocol implements the paper's six movement-signal
// communication protocols plus the §5 variants:
//
//	Sync2        two synchronous robots              (§3.1, Fig. 1)
//	SyncN        n synchronous robots, three naming
//	             schemes: observable IDs (§3.2),
//	             lexicographic (§3.3), SEC-relative (§3.4)
//	Async2       two asynchronous robots             (§4.1, Fig. 5)
//	AsyncN       n asynchronous robots               (§4.2, Fig. 6)
//	AsyncBounded the §5 bounded-slice variant: k data
//	             diameters, recipient index sent as
//	             ⌈log_k n⌉ symbols before the payload
//
// Every protocol is a sim.Behavior per robot plus an Endpoint exposing
// Send/Receive to the application. Behaviors work exclusively in their
// robot's local coordinates; all thresholds are expressed as fractions
// of locally-computed lengths (granular radii, initial separations), so
// correctness is invariant under the per-robot rotations, scales and
// (shared-handedness) reflections the model allows.
package protocol

import (
	"math"

	"waggle/internal/geom"
	"waggle/internal/spatial"
)

// Naming selects how an n-robot protocol identifies recipients.
type Naming int

const (
	// NamingIDs uses observable identifiers (§3.2); requires an
	// identified system and sense of direction.
	NamingIDs Naming = iota + 1
	// NamingLex uses the shared lexicographic order (§3.3); requires
	// sense of direction (and chirality); works for anonymous robots.
	NamingLex
	// NamingSEC uses the per-observer relative naming built on the
	// smallest enclosing circle (§3.4); requires chirality only.
	NamingSEC
)

// String implements fmt.Stringer.
func (n Naming) String() string {
	switch n {
	case NamingIDs:
		return "ids"
	case NamingLex:
		return "lex"
	case NamingSEC:
		return "sec"
	default:
		return "naming(?)"
	}
}

// ToAll is the broadcast recipient for Endpoint.SendAll: the §1 remark
// that the protocols "can be easily adapted to implement efficiently
// one-to-many or one-to-all explicit communication". A one-to-all
// message is transmitted ONCE, on the sender's own diameter — which is
// meaningless as a unicast address (a robot never writes to itself) and
// is therefore free to carry broadcast traffic. Every robot decodes all
// movements anyway, so a single transmission reaches the whole swarm.
const ToAll = -1

// Received is one delivered message.
type Received struct {
	// From and To are home indices (positions in the initial
	// configuration P(t0)); for anonymous schemes they are derived
	// geometrically, never from simulator indices.
	From, To int
	// Payload is the message body.
	Payload []byte
}

// sideOf encodes which half of a diameter a movement used: side 0 is the
// paper's "Northern/Eastern" half (bit 0), side 1 the opposite (bit 1).
type sideOf int

// slicer computes and classifies the sliced-granular directions of §3.2,
// §3.4 and §4.2 for one sender, in the coordinates of one observer. It
// is configured with the sender's reference direction (local North for
// sense-of-direction schemes, the SEC horizon direction for the SEC
// scheme) and the diameter count.
type slicer struct {
	ref       geom.Vec  // unit reference direction (diameter 0, positive end)
	refAngle  float64   // ref.Angle()
	halves    angleGrid // steps of pi/diameters, between adjacent diameter ends
	diameters int
}

// newSlicer builds a slicer; ref must be non-zero.
func newSlicer(ref geom.Vec, diameters int) slicer {
	u := ref.Unit()
	return slicer{ref: u, refAngle: u.Angle(), halves: newAngleGrid(math.Pi / float64(diameters)), diameters: diameters}
}

// direction returns the unit vector of the positive (side-0) end of
// diameter k when side is 0, or the negative end when side is 1.
// Diameters are numbered clockwise from the reference direction, spaced
// pi/diameters apart. "Clockwise" is the fixed local convention; robots
// sharing handedness agree on it (chirality).
func (s slicer) direction(k int, side sideOf) geom.Vec {
	theta := float64(k) * math.Pi / float64(s.diameters)
	if side == 1 {
		theta += math.Pi
	}
	// Clockwise rotation = negative mathematical angle.
	return s.ref.Rotate(-theta)
}

// classify maps an observed displacement to the nearest (diameter, side)
// pair. The displacement must be non-zero.
func (s slicer) classify(d geom.Vec) (k int, side sideOf) {
	// Rotated into the reference frame, d's clockwise angle from the
	// reference is atan2(y, x).
	x := s.ref.X*d.X + s.ref.Y*d.Y
	y := s.ref.Y*d.X - s.ref.X*d.Y
	r, ok := s.halves.round(y, x)
	if !ok {
		alpha := geom.NormalizeAngle(s.refAngle - d.Angle())
		r = math.Round(alpha / s.halves.step)
	}
	m := int(r)
	// m is within [-diameters, 2·diameters] but for degenerate input;
	// the integer division is only needed outside that range.
	if m < 0 || m >= 2*s.diameters {
		m %= 2 * s.diameters
		if m < 0 {
			m += 2 * s.diameters
		}
	}
	if m >= s.diameters {
		return m - s.diameters, 1
	}
	return m, 0
}

// angleGuard is the margin, in radians, inside which angleGrid.round defers
// to atan2. It covers atanUnit's error (below 2e-8) five times over;
// every other rounding on either side (a rotation into a reference
// frame, atan2 itself, a wrap by 2π, the division by the step) is below
// 1e-14 rad.
const angleGuard = 1e-7

// angleGrid rounds polar angles to multiples of step.
type angleGrid struct {
	step, inv float64 // inv is 1/step
}

func newAngleGrid(step float64) angleGrid { return angleGrid{step: step, inv: 1 / step} }

// round returns round(atan2(y, x)/step) without atan2: octant
// reduction and a polynomial arctangent. It answers only where the
// angle lies more than angleGuard from every rounding boundary, where
// the exact expression provably rounds to the same integer. For
// zero, tiny, huge or non-finite input, and near a boundary, ok is
// false and the caller evaluates the exact expression.
func (g angleGrid) round(y, x float64) (q float64, ok bool) {
	ax, ay := math.Abs(x), math.Abs(y)
	big := ax
	if ay > big {
		big = ay
	}
	if !(big > 1e-300 && big < 1e300) {
		return 0, false
	}
	var a float64
	if ay <= ax {
		a = atanUnit(ay / ax)
	} else {
		a = math.Pi/2 - atanUnit(ax/ay)
	}
	if x < 0 {
		a = math.Pi - a
	}
	if math.Signbit(y) {
		a = -a
	}
	// Any nearby integer will do for q: the test below accepts it only
	// if it is the nearest by more than the guard.
	q = math.Floor(a*g.inv + 0.5)
	if math.Abs(a-q*g.step) >= 0.5*g.step-angleGuard {
		return 0, false
	}
	return q, true
}

// atanUnit approximates atan(z) for z in [0, 1] with an odd polynomial
// of degree 17 (Abramowitz & Stegun 4.4.49), absolute error at most
// 2e-8. Estrin's scheme evaluates it in a shorter dependency chain than
// Horner's rule.
func atanUnit(z float64) float64 {
	t := z * z
	t2 := t * t
	t4 := t2 * t2
	lo := (1 - 0.3333314528*t) + t2*(0.1999355085-0.1420889944*t)
	hi := (0.1065626393 - 0.0752896400*t) + t2*(0.0429096138-0.0161657367*t)
	return z * (lo + t4*(hi+t4*0.0028662257))
}

// granularRadii returns, per point, half the distance to its nearest
// neighbour — the granular radius of §3.2 (see internal/voronoi for the
// full diagrams; the radius shortcut is exact because the largest disc
// centred on a site inscribed in its Voronoi cell touches the nearest
// bisector). The computation is delegated to the spatial index, which
// is O(n) expected instead of the all-pairs O(n²) and returns values
// bit-identical to the brute-force scan.
func granularRadii(pts []geom.Point) []float64 {
	return spatial.NearestRadii(pts)
}

// quantizeDir snaps a direction to the nearest of res equally-spaced
// directions in the robot's own frame (§5's limited direction
// resolution). res <= 0 means unlimited. Length is preserved.
func quantizeDir(v geom.Vec, res int) geom.Vec {
	if res <= 0 || v.IsZero() {
		return v
	}
	step := 2 * math.Pi / float64(res)
	theta := math.Round(v.Angle()/step) * step
	s, c := math.Sincos(theta)
	return geom.V(c, s).Scale(v.Len())
}

// moveToward returns the next position when moving from cur towards
// target covering at most maxStep, arriving exactly when close enough.
func moveToward(cur, target geom.Point, maxStep float64) geom.Point {
	d := target.Sub(cur)
	if dist := d.Len(); dist > maxStep {
		return cur.Add(d.Scale(maxStep / dist))
	}
	return target
}
