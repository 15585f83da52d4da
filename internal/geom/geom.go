// Package geom provides the planar geometry substrate for the robot
// simulator: points, vectors, angles, lines, segments, circles, convex
// polygons with half-plane clipping, and local coordinate frames with
// configurable orientation, scale, and handedness (chirality).
//
// The paper models robots as points in the Euclidean plane observed with
// "infinite decimal precision". This package substitutes float64
// arithmetic with epsilon-aware predicates; the protocols built on top
// only ever need to distinguish O(n) slice directions and detect "the
// position changed", both of which are far coarser than float64
// resolution (see DESIGN.md §3).
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by the approximate predicates in this
// package. Coordinates handled by the simulator are O(1e3), so 1e-9
// leaves six orders of magnitude of slack above float64 noise.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// V is shorthand for Vec{x, y}.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns p translated by v.
func (p Point) Add(v Vec) Point { return Point{X: p.X + v.X, Y: p.Y + v.Y} }

// Sub returns the displacement from q to p.
func (p Point) Sub(q Point) Vec { return Vec{X: p.X - q.X, Y: p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool { return p.Dist(q) <= Eps }

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2}
}

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Add returns the vector sum v + w.
func (v Vec) Add(w Vec) Vec { return Vec{X: v.X + w.X, Y: v.Y + w.Y} }

// Sub returns the vector difference v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{X: v.X - w.X, Y: v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{X: v.X * s, Y: v.Y * s} }

// Neg returns -v.
func (v Vec) Neg() Vec { return Vec{X: -v.X, Y: -v.Y} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the 3-D cross product of v and w.
// It is positive when w is counterclockwise of v.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// lenGuard is the relative band around tol² inside which LenAtMost and
// LenExceeds call Hypot. The squared length carries at most 3 ulps of
// relative error and Hypot about 4, so outside a band of 1e-12 (some
// 4,000 ulps) comparing squares decides exactly as comparing Hypot does.
const lenGuard = 1e-12

// lenSide compares v's length with tol through squares: -1 when it is
// provably below tol, +1 when provably above, 0 when only Hypot can
// tell. That is inside the guard band, for a NaN component, and when
// tol² is zero, subnormal or not finite (a subnormal or overflowed
// square has lost the relative precision the band assumes; squares of
// v's components that underflow err by at most 1e-323 absolute, far
// inside the band of a normal tol²).
func (v Vec) lenSide(tol float64) int {
	t2 := tol * tol
	if !(tol > 0 && t2 >= 0x1p-1022 && t2 <= math.MaxFloat64) {
		return 0
	}
	switch l2 := v.X*v.X + v.Y*v.Y; {
	case l2 < t2*(1-lenGuard):
		return -1
	case l2 > t2*(1+lenGuard):
		return 1
	}
	return 0
}

// LenAtMost reports v.Len() <= tol, computing the square root only
// when the squared lengths are too close to decide.
func (v Vec) LenAtMost(tol float64) bool {
	if s := v.lenSide(tol); s != 0 {
		return s < 0
	}
	return v.Len() <= tol
}

// LenExceeds reports v.Len() > tol, computing the square root only when
// the squared lengths are too close to decide. It is not !LenAtMost: a
// NaN length satisfies neither.
func (v Vec) LenExceeds(tol float64) bool {
	if s := v.lenSide(tol); s != 0 {
		return s > 0
	}
	return v.Len() > tol
}

// Unit returns v normalised to length one. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l <= Eps {
		return Vec{}
	}
	return Vec{X: v.X / l, Y: v.Y / l}
}

// Perp returns v rotated by +90 degrees (counterclockwise in a
// right-handed frame).
func (v Vec) Perp() Vec { return Vec{X: -v.Y, Y: v.X} }

// Rotate returns v rotated counterclockwise by theta radians.
func (v Vec) Rotate(theta float64) Vec {
	s, c := math.Sincos(theta)
	return Vec{X: c*v.X - s*v.Y, Y: s*v.X + c*v.Y}
}

// Angle returns the polar angle of v in (-pi, pi].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// IsZero reports whether v has length at most Eps.
func (v Vec) IsZero() bool { return v.Len() <= Eps }

// String implements fmt.Stringer.
func (v Vec) String() string { return fmt.Sprintf("<%.6g, %.6g>", v.X, v.Y) }

// Orientation classifies the turn a->b->c: +1 for a counterclockwise
// turn, -1 for clockwise, 0 for (near-)collinear.
func Orientation(a, b, c Point) int {
	cross := b.Sub(a).Cross(c.Sub(a))
	// Scale the tolerance by the magnitude of the operands so that the
	// predicate is meaningful for both tiny and large triangles.
	scale := b.Sub(a).Len() * c.Sub(a).Len()
	tol := Eps * (1 + scale)
	switch {
	case cross > tol:
		return 1
	case cross < -tol:
		return -1
	default:
		return 0
	}
}

// Collinear reports whether a, b, and c are collinear within tolerance.
func Collinear(a, b, c Point) bool { return Orientation(a, b, c) == 0 }

// Centroid returns the arithmetic mean of the given points. It panics
// only implicitly (NaN) for an empty slice; callers must pass at least
// one point.
func Centroid(pts []Point) Point {
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{X: sx / n, Y: sy / n}
}

// NormalizeAngle maps theta into [0, 2*pi).
func NormalizeAngle(theta float64) float64 {
	// math.Mod returns theta itself when |theta| < 2π, the common case
	// of a difference of two atan2 results, so skip it there.
	t := theta
	if !(theta > -2*math.Pi && theta < 2*math.Pi) {
		t = math.Mod(theta, 2*math.Pi)
	}
	if t < 0 {
		t += 2 * math.Pi
	}
	return t
}

// AngleDiff returns the smallest absolute difference between two angles,
// in [0, pi].
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// ApproxEq reports whether a and b differ by at most Eps scaled to the
// magnitude of the operands.
func ApproxEq(a, b float64) bool {
	return math.Abs(a-b) <= Eps*(1+math.Abs(a)+math.Abs(b))
}
