package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"waggle/internal/geom"
)

// TestCSVRowMatchesFmt pins the strconv row encoder to fmt's
// "%d,%d,%g,%g\n" on the float values where shortest-form rendering has
// edge cases: signed zero, subnormals, the %e switch points, and the
// non-finite values.
func TestCSVRowMatchesFmt(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y float64
	}{
		{"zero", 0, 0},
		{"negative zero", math.Copysign(0, -1), 0},
		{"smallest subnormal", math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
		{"subnormal", 2.2250738585072014e-308 / 3, 1e-310},
		{"1e21", 1e21, 1e20},
		{"just below 1e21", 999999999999999900000, 123456789012345680000},
		{"1e-7", 1e-7, 1e-4},
		{"1e-5", 1e-5, -1e-7},
		{"NaN", math.NaN(), -math.NaN()},
		{"+Inf", math.Inf(1), 1},
		{"-Inf", math.Inf(-1), -1},
		{"max", math.MaxFloat64, -math.MaxFloat64},
		{"ordinary", 1.5, -3.25},
		{"thirds", 1.0 / 3, -2.0 / 3},
	} {
		for _, tr := range [][2]int{{-1, 0}, {0, 7}, {123456789, 2147483647}, {math.MaxInt64, math.MinInt64}} {
			want := fmt.Sprintf("%d,%d,%g,%g\n", tr[0], tr[1], tc.x, tc.y)
			got := string(appendCSVRow(nil, tr[0], tr[1], geom.Pt(tc.x, tc.y)))
			if got != want {
				t.Errorf("%s (t=%d robot=%d): got %q, fmt gives %q", tc.name, tr[0], tr[1], got, want)
			}
			if len(got) > csvRowMax {
				t.Errorf("%s: row of %d bytes exceeds csvRowMax %d", tc.name, len(got), csvRowMax)
			}
		}
	}
}

// TestWriteCSVFromResumes pins the cursor contract: rendering a trace in
// pieces, each call resuming at the previous call's cursor, yields the
// bytes of one fmt-rendered WriteCSV — across 4 KiB chunk boundaries,
// through the per-robot render cache, and for an empty trace.
func TestWriteCSVFromResumes(t *testing.T) {
	oracle := func(tr *Trace) string {
		var b strings.Builder
		b.WriteString("time,robot,x,y\n")
		for i, p := range tr.initial {
			fmt.Fprintf(&b, "%d,%d,%g,%g\n", -1, i, p.X, p.Y)
		}
		for _, s := range tr.steps {
			for i, p := range s.Positions {
				fmt.Fprintf(&b, "%d,%d,%g,%g\n", s.Time, i, p.X, p.Y)
			}
		}
		return b.String()
	}

	empty := NewTrace(nil)
	var b strings.Builder
	next, err := empty.WriteCSVFrom(&b, 0)
	if err != nil || next != 1 || b.String() != "time,robot,x,y\n" {
		t.Fatalf("empty trace: cursor %d, err %v, output %q", next, err, b.String())
	}

	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)/7, -float64(i)*1e-9)
	}
	tr := NewTrace(pts)
	cursor := 0
	b.Reset()
	for step := 0; step < 40; step++ {
		// Robot 0 flips between 0 and -0 (equal as floats, rendered
		// differently), robot 1 moves only along y, the rest move now
		// and then or stay put.
		pts[0].X = math.Copysign(0, float64(step%2*2-1))
		pts[1].Y += 1.0 / 3
		for i := 2; i < len(pts); i++ {
			if (step+i)%3 == 0 {
				pts[i] = pts[i].Add(geom.V(0.1, 1.0/3))
			}
		}
		tr.endStep(step, nil, pts)
		// Render a piece every five instants (the first after four).
		if step%5 != 3 {
			continue
		}
		if cursor, err = tr.WriteCSVFrom(&b, cursor); err != nil {
			t.Fatal(err)
		}
		if cursor != len(tr.steps)+1 {
			t.Fatalf("cursor %d after %d instants", cursor, len(tr.steps))
		}
	}
	if cursor, err = tr.WriteCSVFrom(&b, cursor); err != nil {
		t.Fatal(err)
	}
	want := oracle(tr)
	if b.String() != want {
		t.Fatalf("pieced render differs from the fmt oracle (%d vs %d bytes)", b.Len(), len(want))
	}
	var whole strings.Builder
	if err := tr.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	if whole.String() != want {
		t.Fatalf("WriteCSV differs from the fmt oracle")
	}
	if len(want) < 3*csvChunk {
		t.Fatalf("trace renders %d bytes; the test wants several %d-byte chunks", len(want), csvChunk)
	}
}
