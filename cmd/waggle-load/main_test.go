package main

import (
	"path/filepath"
	"testing"
)

// TestSmoke runs the -smoke configuration against an in-process daemon.
// run itself fails on any failed request and on an overload burst that
// was never answered with 429/503.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // the daemons' checkpoint directories
	if err := run(config{smoke: true, robots: 4, out: filepath.Join(dir, "serve.json")}); err != nil {
		t.Fatalf("smoke run: %v", err)
	}
}
