// Shard extraction and deterministic merge: the pieces of the chaos
// and sweep harnesses the waggle-queen orchestrator distributes.
//
// A shard is one scenario (or one sweep experiment) run to completion.
// Chaos shards are migratable mid-run: ChaosShardRun drives a scenario
// in chunks, folding the stack into a delta checkpoint chain
// (internal/ckpt + internal/wire) between chunks, and Snapshot wraps
// the chain with the harness-side message ledger so ANOTHER process
// can pick the run up exactly where it stopped — the paper's robots
// coordinate through observable state alone, and so do the queen's
// workers: the snapshot artifact is the only channel between them.
// Kill-and-resume byte-identity is already proven by the chaos
// harness (RunChaosScenarioResumed), which makes work-stealing
// safe: a stolen shard produces the same bytes as an undisturbed one.
//
// The merge side is the dual: results arrive in completion order from
// any number of workers, and MergeChaosReport/MergeSweepReport emit
// them in the canonical single-process order, so the merged report is
// byte-identical to the report the unsharded CLI writes.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"waggle"
)

// ShardSnapshotSchema versions the migratable shard-state envelope.
const ShardSnapshotSchema = "waggle-queen-shard/v1"

// shardSnap is the wire form of an interrupted chaos shard: the
// harness-side ledger plus the stack's checkpoint chain. Stack holds
// the raw bytes of a delta chain file (or any format ReadCheckpoint
// reads).
type shardSnap struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	// T is the next undriven instant: the resumed run continues with
	// drive(T, Budget).
	T      int  `json:"t"`
	Cursor int  `json:"cursor"`
	Done   bool `json:"done"`
	// SentAt/DeliveredAt mirror the chaosMsg ledger, indexed like
	// the scenario's Sends (-1 = not yet).
	SentAt      []int  `json:"sent_at"`
	DeliveredAt []int  `json:"delivered_at"`
	Stack       []byte `json:"stack"`
}

// ChaosShardRun is one chaos scenario being driven in resumable
// chunks — the unit of work a queen worker executes. The zero value is
// unusable; construct with NewChaosShardRun or ResumeChaosShardRun.
type ChaosShardRun struct {
	sc     ChaosScenario
	engine waggle.EngineMode
	r      *chaosRun
	obsv   *waggle.Observer
	t      int
	cw     *waggle.CheckpointWriter
}

// NewChaosShardRun starts a fresh shard run of sc with its own
// observer attached, so the eventual Result carries the same obs
// rollup ChaosReportFor computes single-process.
func NewChaosShardRun(sc ChaosScenario, engine waggle.EngineMode) (*ChaosShardRun, error) {
	obsv := waggle.NewObserver()
	r, err := newChaosRun(sc, engine, false, obsv)
	if err != nil {
		return nil, err
	}
	return &ChaosShardRun{sc: sc, engine: engine, r: r, obsv: obsv}, nil
}

// ResumeChaosShardRun rebuilds an interrupted shard from a Snapshot
// taken by any process: the stack is restored from the embedded
// checkpoint chain (replay-verified, byte-identical continuation) and
// the harness ledger is seated as saved. sc must be the same scenario
// the snapshot was taken from — same name and seed.
func ResumeChaosShardRun(sc ChaosScenario, engine waggle.EngineMode, snap []byte) (*ChaosShardRun, error) {
	var ss shardSnap
	if err := json.Unmarshal(snap, &ss); err != nil {
		return nil, fmt.Errorf("chaos %s: shard snapshot: %w", sc.Name, err)
	}
	if ss.Schema != ShardSnapshotSchema {
		return nil, fmt.Errorf("chaos %s: shard snapshot schema %q, want %q", sc.Name, ss.Schema, ShardSnapshotSchema)
	}
	if ss.Name != sc.Name {
		return nil, fmt.Errorf("chaos %s: shard snapshot is of scenario %q", sc.Name, ss.Name)
	}
	if len(ss.SentAt) != len(sc.Sends) || len(ss.DeliveredAt) != len(sc.Sends) {
		return nil, fmt.Errorf("chaos %s: shard snapshot ledger has %d/%d entries, want %d",
			sc.Name, len(ss.SentAt), len(ss.DeliveredAt), len(sc.Sends))
	}
	ck, err := waggle.ReadCheckpoint(bytes.NewReader(ss.Stack))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: shard snapshot stack: %w", sc.Name, err)
	}
	res, err := waggle.Restore(ck, waggle.RestoreWithEngine(engine))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", sc.Name, err)
	}
	if res.Observer == nil {
		return nil, fmt.Errorf("chaos %s: shard snapshot stack has no observer (not a shard checkpoint)", sc.Name)
	}
	msgs := make([]chaosMsg, len(sc.Sends))
	for i, m := range sc.Sends {
		msgs[i] = chaosMsg{send: m, sentAt: ss.SentAt[i], deliveredAt: ss.DeliveredAt[i]}
	}
	r := &chaosRun{
		sc: sc, trace: false,
		s: res.Swarm, bm: res.Messenger, radio: res.Radio,
		msgs: msgs, cursor: ss.Cursor, done: ss.Done,
	}
	return &ChaosShardRun{sc: sc, engine: engine, r: r, obsv: res.Observer, t: ss.T}, nil
}

// T returns the next undriven instant.
func (cs *ChaosShardRun) T() int { return cs.t }

// Budget returns the scenario's instant budget.
func (cs *ChaosShardRun) Budget() int { return cs.sc.Budget }

// Done reports whether every scheduled message is accounted for (the
// run may stop before the budget).
func (cs *ChaosShardRun) Done() bool { return cs.r.done }

// Finished reports whether the run has nothing left to drive: done, or
// budget exhausted.
func (cs *ChaosShardRun) Finished() bool { return cs.r.done || cs.t >= cs.sc.Budget }

// DriveTo advances the run through instant until-1 (clamped to the
// budget). Chunked driving is equivalent to one uninterrupted drive —
// the invariant the chaos delta-resume tests pin.
func (cs *ChaosShardRun) DriveTo(until int) error {
	if until > cs.sc.Budget {
		until = cs.sc.Budget
	}
	if until <= cs.t {
		return nil
	}
	if err := cs.r.drive(cs.t, until); err != nil {
		return err
	}
	cs.t = until
	return nil
}

// Snapshot folds the stack into the delta chain at chainPath (created
// on first use; appended thereafter) and returns the migratable shard
// state: chain bytes plus the harness ledger. The returned bytes are
// self-contained — ResumeChaosShardRun needs nothing else.
func (cs *ChaosShardRun) Snapshot(chainPath string) ([]byte, error) {
	if cs.cw == nil {
		cw, err := cs.r.s.NewCheckpointWriter(chainPath)
		if err != nil {
			return nil, fmt.Errorf("chaos %s: %w", cs.sc.Name, err)
		}
		cs.cw = cw
	}
	if err := cs.cw.Save(); err != nil {
		return nil, fmt.Errorf("chaos %s: %w", cs.sc.Name, err)
	}
	stack, err := os.ReadFile(chainPath)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: %w", cs.sc.Name, err)
	}
	ss := shardSnap{
		Schema: ShardSnapshotSchema,
		Name:   cs.sc.Name,
		T:      cs.t,
		Cursor: cs.r.cursor,
		Done:   cs.r.done,
		Stack:  stack,
	}
	ss.SentAt = make([]int, len(cs.r.msgs))
	ss.DeliveredAt = make([]int, len(cs.r.msgs))
	for i := range cs.r.msgs {
		ss.SentAt[i] = cs.r.msgs[i].sentAt
		ss.DeliveredAt[i] = cs.r.msgs[i].deliveredAt
	}
	return json.Marshal(ss)
}

// Result summarizes the finished run, obs rollup included — identical
// to what RunChaosScenarioObserved reports for an uninterrupted run,
// even when the shard was snapshot-migrated mid-way (restore replays
// the input log, so the deterministic counters are fully rebuilt).
func (cs *ChaosShardRun) Result() (*ChaosResult, error) {
	res, err := cs.r.result()
	if err != nil {
		return nil, err
	}
	res.Obs = ObsRollup{}
	for _, c := range cs.obsv.DeterministicSnapshot().Counters {
		if c.Value != 0 {
			res.Obs[c.Name] = c.Value
		}
	}
	return res, nil
}

// ChaosScenarioNames lists the scenario names in canonical (report)
// order — the shard decomposition of a chaos campaign.
func ChaosScenarioNames(seed int64) []string {
	all := ChaosScenarios(seed)
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return names
}

// MergeChaosReport assembles the canonical chaos report from
// per-scenario results completed in any order by any number of
// workers. names selects the campaign's scenarios (nil = all); the
// output orders results exactly as the single-process ChaosReportFor
// run would, so the merged report is byte-identical to it regardless
// of worker count, completion order, or mid-shard migrations.
func MergeChaosReport(seed int64, engine waggle.EngineMode, names []string, results map[string]ChaosResult) (*ChaosReport, error) {
	want := map[string]bool{}
	if names == nil {
		for _, n := range ChaosScenarioNames(seed) {
			want[n] = true
		}
	} else {
		valid := map[string]bool{}
		for _, n := range ChaosScenarioNames(seed) {
			valid[n] = true
		}
		for _, n := range names {
			if !valid[n] {
				return nil, fmt.Errorf("sweep: merge: unknown chaos scenario %q", n)
			}
			want[n] = true
		}
	}
	for n := range results {
		if !want[n] {
			return nil, fmt.Errorf("sweep: merge: result for scenario %q outside the campaign", n)
		}
	}
	report := &ChaosReport{
		Schema:  ChaosReportSchema,
		Seed:    seed,
		Engine:  engineName(engine),
		Results: []ChaosResult{},
	}
	for _, sc := range ChaosScenarios(seed) {
		if !want[sc.Name] {
			continue
		}
		r, ok := results[sc.Name]
		if !ok {
			return nil, fmt.Errorf("sweep: merge: scenario %q has no result", sc.Name)
		}
		report.Results = append(report.Results, r)
	}
	return report, nil
}

// MergeSweepReport assembles the canonical sweep report from
// per-experiment tables completed in any order: tables are emitted in
// the request order of names, matching the single-process waggle-sweep
// -o output byte-for-byte.
func MergeSweepReport(names []string, tables map[string]TableReport) (*SweepReport, error) {
	for n := range tables {
		found := false
		for _, want := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("sweep: merge: table for experiment %q outside the campaign", n)
		}
	}
	report := NewSweepReport()
	for _, n := range names {
		tbl, ok := tables[n]
		if !ok {
			return nil, fmt.Errorf("sweep: merge: experiment %q has no table", n)
		}
		report.Experiments = append(report.Experiments, tbl)
	}
	return report, nil
}
