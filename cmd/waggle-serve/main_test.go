package main

import (
	"testing"
	"time"
)

// TestSelfCheck runs the -self-check path in-process: a daemon on an
// ephemeral port goes through one create/step/evict/resume/delete
// lifecycle against its own API and drains.
func TestSelfCheck(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the self-check's checkpoint directory
	if err := run(config{selfCheck: true, drainTimeout: 30 * time.Second}); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}
