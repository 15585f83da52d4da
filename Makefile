# Repo-level CI targets. `make verify` is the tier-1 gate: build, vet,
# and the full test suite under the race detector (the parallel step
# engine and the concurrent sweep harness are exercised by it).

GO ?= go

.PHONY: verify build vet fmt-check test race bench bench-json bench-check bench-step bench-ckpt bench-serve bench-queen bench-stream chaos-check obs-check replay-check serve-check stream-check queen-check perfbench-check fuzz-check vulncheck

verify: build vet fmt-check race bench-check chaos-check obs-check replay-check serve-check stream-check queen-check perfbench-check fuzz-check vulncheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The speedup benchmarks for the parallel engine and sweep harness.
bench:
	$(GO) test -run xxx -bench 'BenchmarkStepParallel|BenchmarkSweepParallel' -benchmem .

# Full spatial-index before/after run: measures every grid fast path
# against its brute twin and writes BENCH_spatial.json (the table in
# EXPERIMENTS.md comes from this file).
bench-json:
	$(GO) run ./cmd/waggle-bench -out BENCH_spatial.json

# Step-engine scaling run: full-step wall time at n up to 1,000,000 for
# the structure-of-arrays engine, against the legacy dense-view engine
# where it still fits in memory. Writes BENCH_step.json (schema
# waggle-bench-step/v1; the scaling table in EXPERIMENTS.md).
bench-step:
	$(GO) run ./cmd/waggle-bench -step -out BENCH_step.json

# Checkpoint codec run: save/restore latency and bytes for the JSON v1
# envelope, the binary v2 wire format, and base + delta-frame chains, at
# n up to 1,000,000. Writes BENCH_ckpt.json (schema waggle-bench-ckpt/v1;
# the checkpoint table in EXPERIMENTS.md).
bench-ckpt:
	$(GO) run ./cmd/waggle-bench -ckpt -out BENCH_ckpt.json

# Smoke gate for the benchmark trajectory: every in-package benchmark
# compiles and runs one iteration, and every waggle-bench scenario body
# executes once — including the step-engine scaling bodies at tiny n.
# Catches silently-empty bench suites without paying for a full
# measurement run.
bench-check:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	$(GO) run ./cmd/waggle-bench -smoke
	$(GO) run ./cmd/waggle-bench -step -smoke
	$(GO) run ./cmd/waggle-bench -ckpt -smoke
	$(GO) run ./cmd/waggle-bench -stream -smoke

# Chaos smoke: one fast scenario per fault family through the
# fault-injection harness. The full table (EXPERIMENTS.md) is
# `go run ./cmd/waggle-chaos`.
chaos-check:
	$(GO) run ./cmd/waggle-chaos -scenario crash-sync
	$(GO) run ./cmd/waggle-chaos -scenario displace-sync
	$(GO) run ./cmd/waggle-chaos -scenario obs-noise-sync
	$(GO) run ./cmd/waggle-chaos -scenario move-error-sync
	$(GO) run ./cmd/waggle-chaos -scenario radio-outage
	$(GO) run ./cmd/waggle-chaos -scenario combined -engine parallel

# Record-replay gate: the committed golden checkpoint must restore,
# replay, and reproduce the committed movement trace byte-for-byte;
# every chaos scenario must survive a mid-plan kill-and-resume (restored
# from its delta chain, with the JSON dump and a v2 snapshot of the kill
# instant reading back equal to it); and the JSON dump of the binary
# golden checkpoint must be the committed v1 golden, byte for byte.
# Regenerate the artifacts (only for intentional protocol changes) with
# `go test -run TestGoldenReplay -update-golden .`.
replay-check:
	$(GO) test -run TestGoldenReplay -count=1 .
	$(GO) run ./cmd/waggle-chaos -resume-check -scenario combined
	$(GO) run ./cmd/waggle-sim -dump-checkpoint testdata/golden.ckptb | cmp - testdata/golden.ckpt

# Observability smoke: run a short instrumented sim, validate that the
# Prometheus text exposition parses and the JSON snapshot round-trips
# byte-for-byte (DESIGN.md §5d).
obs-check:
	$(GO) run ./cmd/waggle-sim -obs-check

# Session-daemon smoke: start waggle-serve on an ephemeral port, run one
# create/step/evict/resume/delete lifecycle against its own API, verify
# the serve metrics saw it, and drain gracefully (DESIGN.md §5h). Then a
# seconds-long waggle-load pass: mixed create/step/evict/resume traffic
# plus an overload burst that must be answered with 429/503.
serve-check:
	$(GO) run ./cmd/waggle-serve -self-check
	$(GO) run ./cmd/waggle-load -smoke -out /dev/null

# Streaming-trace gate: record a deterministic run to a
# waggle-stream/v1 file and prove the crash contract end to end — the
# stream replays to the un-streamed control's trace digest under both
# engines (byte-identical files), a spectator joining at the latest
# keyframe converges to the live end state, and a kill -9 mid-append
# loses at most the torn tail record (DESIGN.md §5j). Run under -race:
# the stream taps ride the step loop next to the parallel engine.
stream-check:
	$(GO) run -race ./cmd/waggle-sim -stream-check

# Stream-writer overhead run: ns/step with the waggle-stream/v1 writer
# attached vs detached at n up to 1,000,000, plus the spectate
# join-mid-stream latency. Writes BENCH_stream.json (schema
# waggle-bench-stream/v1; the streaming table in EXPERIMENTS.md).
bench-stream:
	$(GO) run ./cmd/waggle-bench -stream -out BENCH_stream.json

# Orchestrator gauntlet: the full chaos matrix under a queen with 4
# worker processes, one worker SIGKILLed while it holds a shard with
# banked checkpoint progress (forcing a lease expiry and a
# checkpoint-migrating steal), and the queen itself restarted from its
# journal mid-campaign. The merged report is sha256-compared against
# the single-process waggle-chaos run and must be byte-identical
# (DESIGN.md §5i).
queen-check:
	$(GO) run -race ./cmd/waggle-queen -self-check

# Orchestrator scaling run: the chaos matrix and a sweep campaign at 1
# vs 4 workers, plus a worker-kill run. Writes BENCH_queen.json (schema
# waggle-bench-queen/v1; the queen table in EXPERIMENTS.md).
bench-queen:
	$(GO) run ./cmd/waggle-queen -bench -bench-out BENCH_queen.json

# Full load run against an in-process daemon: 1000 concurrent sessions,
# mixed create/step/evict/resume traffic and an overload burst. Writes
# BENCH_serve.json (the serve table in EXPERIMENTS.md).
bench-serve:
	$(GO) run ./cmd/waggle-load -out BENCH_serve.json

# The repo benchmark (perfbench/, run by `bash perfbench/run.sh`) is
# its own module, so `./...` above never reaches it: vet it and run its
# stats, trace and metric-table tests here (-short skips the
# seconds-long smoke run of every workload).
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test -short .

# Fuzz smoke: a few seconds each on the shared byte boundaries — the
# checkpoint decoder, the append-only frame scanner every log shares
# (wire/log.go), the stream tail spectate feeds client offsets into,
# the one checkpoint loader entry (v1 and v2), and the Retry-After
# parser clients feed server headers into.
# `go test -fuzz` takes one target per call.
fuzz-check:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzScanLog$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTailStream$$' -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz '^FuzzParseRetryAfter$$' -fuzztime 5s ./internal/retry

# Known-vulnerability scan, skipped gracefully when govulncheck is not
# installed or its database is unreachable (offline CI).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: scan failed (offline?); skipping"; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi
