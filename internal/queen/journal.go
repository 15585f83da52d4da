package queen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"waggle/internal/wire"
)

// The journal is the queen's durable task-graph state: an append-only
// log of CRC-framed JSON events (wire/log.go) whose first frame records
// the campaign spec and whose subsequent frames record shard
// completions and the final merge, each fsynced before the triggering
// request is acknowledged. A restarted queen replays it to resume the
// campaign without re-running finished shards. Leases and snapshots are
// deliberately NOT journaled — they are volatile coordination state,
// reconstructed by the live protocol (a shard in flight when the queen
// died is simply leased again).
//
// A torn final frame (queen killed mid-append) is dropped on read — the
// event it described simply did not happen — and truncated away when
// the journal is reopened, before the first new append. A complete
// frame that fails its CRC is corruption and an error.

// journalMagic tags every journal frame.
var journalMagic = wire.Magic{Tag: "WQJ1"}

// journalEvent is one journal frame's body.
type journalEvent struct {
	Ev string `json:"ev"` // "campaign" | "done" | "merged"
	// Spec is set on "campaign".
	Spec *Spec `json:"spec,omitempty"`
	// Shard and Result are set on "done".
	Shard  string          `json:"shard,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// journalWriter appends fsynced events.
type journalWriter struct {
	mu  sync.Mutex
	log *wire.Log
}

// openJournal opens (or creates) the journal at path. A fresh file
// gets the campaign record; an existing one must already describe the
// same campaign — NewFromJournal is the path for resuming.
func openJournal(path string, spec Spec) (*journalWriter, error) {
	rec, err := readJournal(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errEmptyJournal) {
		return nil, err
	}
	if rec != nil && !specEqual(spec, rec.spec) {
		return nil, fmt.Errorf("queen: journal %s holds a different campaign; resume it with -journal alone or point -journal elsewhere", path)
	}
	end := int64(0)
	if rec != nil {
		end = rec.end
	}
	log, err := wire.OpenLog(path, end, 1)
	if err != nil {
		return nil, err
	}
	jw := &journalWriter{log: log}
	if rec == nil {
		if err := jw.append(journalEvent{Ev: "campaign", Spec: &spec}); err != nil {
			log.Close()
			return nil, err
		}
	}
	return jw, nil
}

func (jw *journalWriter) append(ev journalEvent) error {
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	frame, _ := wire.EncodeFrame(journalMagic, 0, body)
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.log.Append(frame); err != nil {
		return fmt.Errorf("queen: journal: %w", err)
	}
	return nil
}

func (jw *journalWriter) appendDone(shard string, result json.RawMessage) error {
	return jw.append(journalEvent{Ev: "done", Shard: shard, Result: result})
}

func (jw *journalWriter) appendMerged() error {
	return jw.append(journalEvent{Ev: "merged"})
}

func (jw *journalWriter) close() {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	jw.log.Close()
}

// journalRecord is a replayed journal: the campaign, its completed
// shards, and the clean end a reopened writer appends at.
type journalRecord struct {
	spec    Spec
	results map[string]json.RawMessage
	merged  bool
	end     int64
}

// errEmptyJournal: the journal holds no complete frame.
var errEmptyJournal = errors.New("queen: journal holds no complete record")

// readJournal replays the journal at path. A torn final frame is
// dropped; any other damage is an error.
func readJournal(path string) (*journalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && data[0] == '{' {
		return nil, fmt.Errorf("queen: journal %s is a JSONL journal, a format no longer read", path)
	}
	rec := &journalRecord{results: map[string]json.RawMessage{}}
	n := 0
	rec.end, _, err = wire.ScanLog(data, []wire.Magic{journalMagic}, func(f wire.Frame) error {
		n++
		var ev journalEvent
		if err := json.Unmarshal(f.Body, &ev); err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		switch {
		case ev.Ev == "campaign" && n == 1 && ev.Spec != nil:
			rec.spec = *ev.Spec
		case n == 1:
			return errors.New("does not start with a campaign record")
		case ev.Ev == "done":
			rec.results[ev.Shard] = ev.Result
		case ev.Ev == "merged":
			rec.merged = true
		default:
			return fmt.Errorf("record %d: unexpected event %q", n, ev.Ev)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("queen: journal %s: %w", path, err)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: %s", errEmptyJournal, path)
	}
	return rec, nil
}
