package main

import (
	"os"
	"testing"
)

// TestMain lets this test binary stand in for waggle-queen: the queen
// spawns its workers by re-executing os.Executable() with -worker,
// which under go test is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		main() // exits 1 itself on error
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSelfCheck runs the -self-check gauntlet: the chaos matrix under 4
// worker processes, one SIGKILLed mid-shard and the queen restarted
// from its journal, with the merged report byte-identical to the
// single-process run.
func TestSelfCheck(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the campaign's journal and report directory
	if err := selfCheck(config{seed: 1}); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}
