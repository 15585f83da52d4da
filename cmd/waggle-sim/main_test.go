package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunScenarios(t *testing.T) {
	tests := []struct {
		name string
		cfg  config
	}{
		{"two sync", config{n: 2, sync: true, seed: 1, from: 0, to: 1, msg: "HI", scheduler: "random", budget: 100_000, quiet: true}},
		{"n async sec", config{n: 5, seed: 2, from: 0, to: 3, msg: "X", scheduler: "random", budget: 5_000_000, quiet: true}},
		{"ids round robin", config{n: 4, ids: true, seed: 3, from: 1, to: 2, msg: "Y", scheduler: "roundrobin", budget: 5_000_000}},
		{"bounded starver", config{n: 4, compass: true, seed: 4, from: 0, to: 2, msg: "Z", bounded: 2, scheduler: "starver", budget: 10_000_000, quiet: true}},
		{"levels", config{n: 2, sync: true, seed: 5, from: 0, to: 1, msg: "L", levels: 16, scheduler: "random", budget: 100_000, quiet: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRunWithTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	cfg := config{n: 2, sync: true, seed: 1, from: 0, to: 1, msg: "T", scheduler: "random", budget: 100_000, quiet: true, tracePath: path}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,robot,x,y\n") {
		t.Errorf("trace header wrong: %q", string(data[:20]))
	}
}

func TestRunBadScheduler(t *testing.T) {
	cfg := config{n: 2, sync: true, seed: 1, from: 0, to: 1, msg: "HI", scheduler: "bogus", budget: 1000, quiet: true}
	if err := run(cfg); err == nil {
		t.Error("bad scheduler accepted")
	}
}

func TestRunWithListen(t *testing.T) {
	// Non-blocking -listen: endpoint comes up, the run completes, the
	// server is torn down by the deferred closer.
	cfg := config{n: 2, sync: true, seed: 1, from: 0, to: 1, msg: "M", scheduler: "random", budget: 100_000, quiet: true, listen: "127.0.0.1:0"}
	if err := run(cfg); err != nil {
		t.Error(err)
	}
}

func TestObsCheck(t *testing.T) {
	if err := run(config{obsCheck: true}); err != nil {
		t.Error(err)
	}
}

// TestDumpCheckpoint: dumping the committed binary golden checkpoint
// reproduces the committed v1 golden file byte for byte, and a missing
// file is an error.
func TestDumpCheckpoint(t *testing.T) {
	var out bytes.Buffer
	if err := dumpCheckpoint(&out, "../../testdata/golden.ckptb"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/golden.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("dump of golden.ckptb (%d B) differs from golden.ckpt (%d B)", out.Len(), len(want))
	}
	if err := dumpCheckpoint(&out, filepath.Join(t.TempDir(), "nope.wck")); err == nil {
		t.Fatal("dumping a missing file succeeded")
	}
}
