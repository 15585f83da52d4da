package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
)

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, and checks that it reports zero failed ops, every end-to-end
// metric finite and positive, and a traced run that reconciles.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-robot world and ages 48 serve sessions")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				dir := t.TempDir()
				out, err := w.run(runConfig{
					seed: 3, seconds: 0.5, traced: traced, dir: dir, log: io.Discard,
					spans: filepath.Join(dir, "spans.json"),
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, out.failed, out.attempted, out.failures)
				}
				for _, d := range endToEnd {
					if d.Name == "peak_mem_mb" {
						continue
					}
					v, ok := out.e2e[d.Name]
					if !ok || !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: %s = %v (present %v)", traced, d.Name, v, ok)
					}
				}
				if !traced {
					continue
				}
				if out.layers["trace.overflow_spans"] != 0 {
					t.Errorf("traced run flagged %v overflowing spans: %s", out.layers["trace.overflow_spans"], out.reconcile)
				}
				share := out.layers["trace.unaccounted_share"]
				if share < 0 || share >= 0.5 {
					t.Errorf("unaccounted share %v: %s", share, out.reconcile)
				}
				for name, v := range out.layers {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("layer metric %s = %v", name, v)
					}
				}
			}
		})
	}
}
