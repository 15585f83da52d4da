package sweep

import (
	"reflect"
	"testing"

	"waggle"
)

// TestChaosResumedAllCodecs is the cross-format determinism property:
// for EVERY chaos scenario, under both engines, a run killed mid-plan
// and restored from the base + delta-frame chain the periodic
// CheckpointWriter wrote continues byte-identically to the
// uninterrupted run. At the kill instant RunChaosScenarioResumed also
// requires the live checkpoint's v1 JSON dump and v2 snapshot to read
// back deep-equal to the folded chain, so every format a checkpoint
// can be written in is covered by the one continuation. The restore
// path itself re-captures state and requires deep equality, so a fold
// or codec bug fails the restore rather than corrupting the
// continuation.
func TestChaosResumedAllCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario × engine sweep")
	}
	engines := []waggle.EngineMode{waggle.EngineSequential, waggle.EngineParallel}
	for _, sc := range ChaosScenarios(1) {
		for _, engine := range engines {
			killAt := sc.Budget / 2
			want, err := RunChaosScenario(sc, engine, true)
			if err != nil {
				t.Fatalf("%s (engine %v): baseline: %v", sc.Name, engine, err)
			}
			got, err := RunChaosScenarioResumed(sc, engine, killAt)
			if err != nil {
				t.Fatalf("%s (engine %v): %v", sc.Name, engine, err)
			}
			if got.TraceCSV == "" || got.TraceCSV != want.TraceCSV {
				t.Errorf("%s (engine %v): resumed trace differs from the uninterrupted run", sc.Name, engine)
			}
			gotCopy, wantCopy := *got, *want
			gotCopy.TraceCSV, wantCopy.TraceCSV = "", ""
			if !reflect.DeepEqual(&gotCopy, &wantCopy) {
				t.Errorf("%s (engine %v): resumed report differs:\n%+v\nvs\n%+v", sc.Name, engine, got, want)
			}
		}
	}
}
