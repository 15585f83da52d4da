package sim

import (
	"io"
	"math"
	"strconv"

	"waggle/internal/geom"
)

// StepRecord summarises one instant: who was active and the resulting
// configuration.
type StepRecord struct {
	Time      int
	Active    []int
	Positions []geom.Point
}

// Trace records a full execution for analysis: the initial
// configuration, every per-instant configuration, and each robot's
// total distance covered. It is omniscient — protocols never read it;
// tests, figure generators and benchmarks do.
type Trace struct {
	initial []geom.Point
	steps   []StepRecord
	dist    []float64 // per-robot running sum of move lengths
}

// NewTrace starts a trace from the given initial configuration.
func NewTrace(initial []geom.Point) *Trace {
	init := make([]geom.Point, len(initial))
	copy(init, initial)
	return &Trace{initial: init, dist: make([]float64, len(initial))}
}

// record accounts one move of robot, an index of the initial
// configuration.
func (tr *Trace) record(robot int, from, to geom.Point) {
	tr.dist[robot] += from.Dist(to)
}

func (tr *Trace) endStep(t int, active []int, positions []geom.Point) {
	act := make([]int, len(active))
	copy(act, active)
	pos := make([]geom.Point, len(positions))
	copy(pos, positions)
	tr.steps = append(tr.steps, StepRecord{Time: t, Active: act, Positions: pos})
}

// Initial returns the initial configuration.
func (tr *Trace) Initial() []geom.Point {
	out := make([]geom.Point, len(tr.initial))
	copy(out, tr.initial)
	return out
}

// Steps returns the per-instant records in order.
func (tr *Trace) Steps() []StepRecord {
	out := make([]StepRecord, len(tr.steps))
	copy(out, tr.steps)
	return out
}

// TotalDistance returns the total distance covered by one robot — the
// energy proxy used by the silence experiments (C5 in DESIGN.md) — and
// 0 for an index outside the swarm.
func (tr *Trace) TotalDistance(robot int) float64 {
	if robot < 0 || robot >= len(tr.dist) {
		return 0
	}
	return tr.dist[robot]
}

// MinPairwiseDistance returns the smallest distance between any two
// robots over the whole recorded execution — the collision-avoidance
// metric (experiment C7).
func (tr *Trace) MinPairwiseDistance() float64 {
	best := minPairwise(tr.initial)
	for _, s := range tr.steps {
		if d := minPairwise(s.Positions); d < best {
			best = d
		}
	}
	return best
}

func minPairwise(pts []geom.Point) float64 {
	best := -1.0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best
}

// WriteCSV streams the trace's per-instant configurations as CSV:
// time,robot,x,y — one row per robot per recorded instant, preceded by
// the initial configuration at time -1. The format feeds external
// plotting tools.
func (tr *Trace) WriteCSV(w io.Writer) error {
	_, err := tr.WriteCSVFrom(w, 0)
	return err
}

// WriteCSVFrom writes the CSV records of WriteCSV from record cursor on
// and returns the cursor past the last record written. Record 0 is the
// header plus the initial configuration; record k ≥ 1 is the rows of
// the k-th recorded instant. The trace is append-only, so feeding
// successive calls, each resuming at the previous call's cursor, into
// one writer yields exactly the bytes of a single WriteCSV — which is
// how a running digest of the CSV costs only the instants added since
// it was last taken.
func (tr *Trace) WriteCSVFrom(w io.Writer, cursor int) (int, error) {
	buf := make([]byte, 0, csvChunk)
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	// tails caches each robot's last rendered "x,y\n": between instants
	// most robots stay put (all but the activated few under an
	// asynchronous scheduler), and rendering the floats is most of a
	// row's cost. Positions are compared bit for bit, so -0 and 0 stay
	// distinct.
	var tails []csvTail
	rows := func(t int, pts []geom.Point) error {
		if len(tails) < len(pts) {
			tails = append(tails, make([]csvTail, len(pts)-len(tails))...)
		}
		for i, p := range pts {
			buf = appendCSVPrefix(buf, t, i)
			c := &tails[i]
			x, y := math.Float64bits(p.X), math.Float64bits(p.Y)
			if c.b == nil || c.x != x || c.y != y {
				c.x, c.y = x, y
				c.b = appendCSVTail(c.b[:0], p)
			}
			buf = append(buf, c.b...)
			if len(buf) > csvChunk-csvRowMax {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if cursor <= 0 {
		buf = append(buf, csvHeader...)
		if err := rows(-1, tr.initial); err != nil {
			return cursor, err
		}
		cursor = 1
	}
	for ; cursor <= len(tr.steps); cursor++ {
		s := &tr.steps[cursor-1]
		if err := rows(s.Time, s.Positions); err != nil {
			return cursor, err
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return cursor, err
		}
	}
	return cursor, nil
}

const (
	csvHeader = "time,robot,x,y\n"
	// csvChunk is the size of the buffer WriteCSVFrom renders rows
	// through; a chunk is flushed before it could need to grow.
	csvChunk = 4096
	// csvRowMax bounds one row: two 20-digit ints, two shortest-form
	// float64s (at most 24 bytes each), three commas and a newline.
	csvRowMax = 128
)

// csvTail is one robot's rendered "x,y\n" and the position bits it
// renders.
type csvTail struct {
	x, y uint64
	b    []byte
}

// appendCSVRow appends the row "t,robot,x,y\n" formatted exactly as
// fmt's "%d,%d,%g,%g\n" would, through strconv instead of fmt.
func appendCSVRow(dst []byte, t, robot int, p geom.Point) []byte {
	return appendCSVTail(appendCSVPrefix(dst, t, robot), p)
}

// appendCSVPrefix appends a row's "t,robot," part.
func appendCSVPrefix(dst []byte, t, robot int) []byte {
	dst = strconv.AppendInt(dst, int64(t), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(robot), 10)
	return append(dst, ',')
}

// appendCSVTail appends a row's "x,y\n" part.
func appendCSVTail(dst []byte, p geom.Point) []byte {
	dst = strconv.AppendFloat(dst, p.X, 'g', -1, 64)
	dst = append(dst, ',')
	dst = strconv.AppendFloat(dst, p.Y, 'g', -1, 64)
	return append(dst, '\n')
}
