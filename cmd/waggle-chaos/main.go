// Command waggle-chaos runs the fault-injection harness: scripted
// fault plans (crash-recover, displacement, observation faults,
// movement errors, radio outages, jamming ramps, and a combined
// scenario) swept across the protocols, reporting delivery rate,
// latency, messenger retry counters, and steps-to-recover.
//
// Identical seeds reproduce identical reports, under every engine.
//
// Usage:
//
//	waggle-chaos                     # all scenarios, automatic engine
//	waggle-chaos -scenario jam-ramp  # one scenario
//	waggle-chaos -seed 7 -csv        # reseeded, machine-readable
//	waggle-chaos -engine parallel    # force the parallel step engine
//	waggle-chaos -o report.json      # schema-stable JSON with obs rollups
//	waggle-chaos -listen :8080       # serve /metrics, /trace, pprof
//	waggle-chaos -list               # scenario names
//	waggle-chaos -resume-check       # verify kill-and-resume determinism
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/obs"
	"waggle/internal/sweep"
)

// config carries the parsed flags; tests drive run with it directly.
type config struct {
	scenario string
	seed     int64
	csv      bool
	engine   string
	list     bool
	out      string // -o: JSON report path ("-" = stdout)
	listen   string // -listen: introspection endpoint address
	block    bool   // keep serving after the run until interrupted

	resumeCheck bool // -resume-check: verify kill-and-resume determinism and exit
	killAt      int  // -kill-at: instant of the simulated death
}

func main() {
	var cfg config
	flag.StringVar(&cfg.scenario, "scenario", "", "scenario name (empty = all); see -list")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for schedulers, frames, fault draws and jamming")
	flag.BoolVar(&cfg.csv, "csv", false, "emit CSV instead of an aligned table")
	flag.StringVar(&cfg.engine, "engine", "auto", "step engine: auto|sequential|parallel")
	flag.BoolVar(&cfg.list, "list", false, "list scenario names and exit")
	flag.StringVar(&cfg.out, "o", "", "write the schema-stable JSON report to this file (- = stdout)")
	flag.StringVar(&cfg.listen, "listen", "", "serve the observability endpoint (/metrics, /trace, pprof) on this address")
	flag.BoolVar(&cfg.resumeCheck, "resume-check", false, "kill each scenario mid-plan, checkpoint, resume, and verify byte-identical traces; exit nonzero on divergence")
	flag.IntVar(&cfg.killAt, "kill-at", 150, "instant of the simulated process death for -resume-check")
	flag.Parse()
	cfg.block = cfg.listen != ""
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "waggle-chaos:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.list {
		for _, sc := range sweep.ChaosScenarios(cfg.seed) {
			fmt.Printf("%-16s %s\n", sc.Name, sc.Family)
		}
		return nil
	}
	engine, err := sweep.ParseEngineMode(cfg.engine)
	if err != nil {
		return err
	}
	if cfg.resumeCheck {
		return resumeCheck(cfg, engine)
	}
	if cfg.scenario != "" {
		if _, err := sweep.FindChaosScenario(cfg.scenario, cfg.seed); err != nil {
			return err
		}
	}
	var obsv *waggle.Observer
	var stop func()
	if cfg.listen != "" {
		obsv = waggle.NewObserver()
		if stop, err = serveIntrospection(cfg.listen, obsv); err != nil {
			return err
		}
		defer stop()
	}
	report, err := sweep.ChaosReportFor(cfg.scenario, cfg.seed, engine, obsv)
	if err != nil {
		return err
	}
	tbl := sweep.ChaosResultTable(report.Results)
	if cfg.csv {
		fmt.Print(tbl.CSV())
	} else {
		fmt.Print(tbl.String())
	}
	if cfg.out != "" {
		if err := writeReport(cfg.out, report); err != nil {
			return err
		}
	}
	if cfg.block {
		fmt.Println("serving observability endpoint; interrupt to exit")
		waitForInterrupt()
	}
	return nil
}

// resumeCheck runs each scenario twice — uninterrupted, and with a
// simulated process death at -kill-at followed by a restore from the
// run's checkpoint chain — and verifies the movement traces are
// byte-identical. The resumed run also requires the JSON dump and a v2
// snapshot of the kill-instant state to read back equal to the chain
// (see sweep.RunChaosScenarioResumed).
// One scenario can be selected with -scenario; the default sweeps all.
func resumeCheck(cfg config, engine waggle.EngineMode) error {
	scenarios := sweep.ChaosScenarios(cfg.seed)
	if cfg.scenario != "" {
		sc, err := sweep.FindChaosScenario(cfg.scenario, cfg.seed)
		if err != nil {
			return err
		}
		scenarios = []sweep.ChaosScenario{sc}
	}
	for _, sc := range scenarios {
		killAt := cfg.killAt
		if killAt >= sc.Budget {
			killAt = sc.Budget / 2
		}
		want, err := sweep.RunChaosScenario(sc, engine, true)
		if err != nil {
			return err
		}
		got, err := sweep.RunChaosScenarioResumed(sc, engine, killAt)
		if err != nil {
			return err
		}
		if got.TraceCSV != want.TraceCSV {
			return fmt.Errorf("resume-check %s: resumed trace diverges from the uninterrupted run (kill at t=%d)", sc.Name, killAt)
		}
		fmt.Printf("resume-check ok: %-16s killed at t=%-5d trace byte-identical (%d bytes)\n",
			sc.Name, killAt, len(want.TraceCSV))
	}
	return nil
}

// writeReport lands the report atomically (temp + fsync + rename):
// a reader — or a CI diff — never sees a torn file, even if the
// process dies mid-write.
func writeReport(path string, report *sweep.ChaosReport) error {
	if path == "-" {
		return report.WriteJSON(os.Stdout)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, buf.Bytes())
}

// serveIntrospection starts the observability endpoint in the
// background via the shared obs wiring (hardened timeouts, graceful
// drain on stop), returning a closer that logs any shutdown error.
func serveIntrospection(addr string, o *waggle.Observer) (func(), error) {
	stop, err := obs.StartIntrospection(addr, o.Handler(), os.Stdout)
	if err != nil {
		return nil, err
	}
	return func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "waggle-chaos: %v\n", err)
		}
	}, nil
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
