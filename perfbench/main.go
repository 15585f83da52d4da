// Command perfbench is waggle's repository benchmark. One command runs
// one workload for a fixed wall time, checks the program's outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With --trace 1 the run repeats the workload with
// spans recorded around every call into a program layer (from the
// benchmark's own code only) and reports the per-layer metrics.
//
//	bash perfbench/run.sh --workload chat --seed 1 --seconds 25 --trace 0
//
// WORKLOADS.md records why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of waggle sees, reported by every
// workload (WORKLOADS.md says what "op" and "throughput" mean on each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_mem_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"throughput_per_cpu_s", "1/s"},
}

// perLayer are the traced run's metrics, one layer each. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"waggle.newswarm_ms", "ms"},
	{"protocol.behavior_calls", "count"},
	{"protocol.behavior_s", "s"},
	{"protocol.behavior_share", "ratio"},
	{"sim.step_ms", "ms"},
	{"sim.activations", "count"},
	{"sim.self_s", "s"},
	{"core.bits_sent", "count"},
	{"core.delivered", "count"},
	{"core.instants_to_deliver", "count"},
	{"serve.rtt_p50_ms", "ms"},
	{"serve.step_handler_ms", "ms"},
	{"serve.send_handler_ms", "ms"},
	{"serve.observe_handler_ms", "ms"},
	{"serve.spectate_handler_ms", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"serve.resume_ratio", "ratio"},
	{"serve.shed", "count"},
	{"resume.load_ms", "ms"},
	{"resume.restore_ms", "ms"},
	{"resume.replayed_inputs", "count"},
	{"resume.writer_ms", "ms"},
	{"resume.stream_reopen_ms", "ms"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.delta_ratio", "ratio"},
	{"ckpt.bytes_per_save", "B"},
	{"ckpt.capture_ms", "ms"},
	{"ckpt.encode_ms", "ms"},
	{"ckpt.write_ms", "ms"},
	{"wire.chain_bytes", "B"},
	{"wire.append_ms", "ms"},
	{"wire.bytes_per_instant", "B"},
	{"wire.join_read_ms", "ms"},
	{"wire.join_decode_ms", "ms"},
	{"wire.join_records", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unaccounted_share", "ratio"},
	{"trace.overflow_spans", "count"},
}

// buildDir holds everything a run leaves behind (binary, scratch
// files, span dumps), inside the checkout the benchmark runs from.
const buildDir = ".bench_build"

// runConfig is what every workload receives: its seed, the measured
// wall time, whether this is the traced run, and a scratch directory
// inside the checkout.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	dir     string
	// spans is where the traced run writes its spans as Chrome
	// trace-event JSON.
	spans string
	log   io.Writer
}

// outcome is what a workload reports.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	// e2e holds the end-to-end metrics (every endToEnd name except
	// peak_mem_mb, which main measures).
	e2e map[string]float64
	// named are the workload's own headline numbers under the names the
	// workload's design uses (chat.bits_per_s, scale.join_ms, ...),
	// printed above the JSON line.
	named []namedValue
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// reconcile is the traced run's self-time split.
	reconcile string
}

type namedValue struct {
	name string
	unit string
	s    summary
}

// fail counts one failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"chat", runChat},
	{"serve-aged", runServe},
	{"swarm-scale", runScale},
}

func main() {
	name := flag.String("workload", "", "workload to run: chat, serve-aged or swarm-scale")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall time to measure for")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (chat, serve-aged, swarm-scale)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println(hostLine())
	out, err := w.run(runConfig{
		seed: seed, seconds: seconds, traced: traced, dir: dir, log: os.Stdout,
		spans: filepath.Join(buildDir, "spans-"+name+".json"),
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	metrics := map[string]jsonMetric{}
	defs, values := perLayer, out.layers
	if !traced {
		defs, values = endToEnd, out.e2e
		values["peak_mem_mb"] = peakMemMB()
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if !traced {
				return fmt.Errorf("%s: end-to-end metric %s not measured", name, d.Name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, d.Name, v)
		}
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	printReport(os.Stdout, name, out, defs, metrics)
	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no ops attempted", name)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints the human-readable part of a run: the workload's
// own headline numbers with their spread, the traced run's
// reconciliation, failures, and every reported metric with its unit.
func printReport(w io.Writer, name string, out *outcome, defs []metricDef, metrics map[string]jsonMetric) {
	for _, nv := range out.named {
		s := nv.s
		fmt.Fprintf(w, "%s %s = %.4g %s (median of %d; quartiles %.4g..%.4g; p%g %.4g)\n",
			name, nv.name, s.P50, nv.unit, s.N, s.P25, s.P75, s.TailPct*100, s.Tail)
	}
	if out.reconcile != "" {
		fmt.Fprintf(w, "%s trace: %s\n", name, out.reconcile)
	}
	for _, f := range out.failures {
		fmt.Fprintf(w, "%s FAILED: %s\n", name, f)
	}
	fmt.Fprintf(w, "%s attempted %d ops, %d failed\n", name, out.attempted, out.failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", name, d.Name, metrics[d.Name].Value, d.Unit)
	}
}

// hostLine is the host block: what the numbers were measured on.
func hostLine() string {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("host: gomaxprocs=%d nproc=%d go=%s os=%s/%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// peakMemMB is the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is absent.
func peakMemMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// scratchPath joins name under the run's scratch directory.
func (c runConfig) scratchPath(name string) string { return filepath.Join(c.dir, name) }
