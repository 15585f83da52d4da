package queen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle/internal/wire"
)

// FuzzReadJournal attacks the journal reader past the framing: the
// event bodies a restarted queen replays. It is seeded with a journal
// written by openJournal/append and a torn copy of it. Contract: no
// panic; a successful read takes its campaign spec from record 1,
// ignores only a torn final frame past its clean end (any other damage
// is an error), and reads the same record when a torn copy of its last
// frame is appended to that clean prefix.
func FuzzReadJournal(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.journal")
	jw, err := openJournal(seed, Spec{Kind: "chaos", Seed: 7, Names: []string{"a", "b"}})
	if err != nil {
		f.Fatal(err)
	}
	if err := jw.appendDone("a", json.RawMessage(`{"delivered":3}`)); err != nil {
		f.Fatal(err)
	}
	if err := jw.appendMerged(); err != nil {
		f.Fatal(err)
	}
	jw.close()
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-3])

	magics := []wire.Magic{journalMagic}
	path := filepath.Join(dir, "fuzz.journal")
	read := func(t *testing.T, data []byte) (*journalRecord, error) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return readJournal(path)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := read(t, data)
		if err != nil {
			return
		}
		if rec.end <= 0 || rec.end > int64(len(data)) {
			t.Fatalf("clean end %d outside (0, %d]", rec.end, len(data))
		}
		var first journalEvent
		var last wire.Frame
		_, torn, err := wire.ScanLog(data, magics, func(fr wire.Frame) error {
			if fr.Off == 0 {
				if err := json.Unmarshal(fr.Body, &first); err != nil {
					return err
				}
			}
			last = fr
			return nil
		})
		if err != nil {
			t.Fatalf("accepted journal fails a rescan: %v", err)
		}
		if first.Ev != "campaign" || first.Spec == nil || !reflect.DeepEqual(*first.Spec, rec.spec) {
			t.Fatalf("spec %+v does not come from record 1 (%+v)", rec.spec, first)
		}
		if rec.end < int64(len(data)) && !torn {
			t.Fatalf("%d bytes past the clean end dropped, but they are not a torn frame", int64(len(data))-rec.end)
		}
		cut := append(append([]byte(nil), data[:rec.end]...), data[last.Off:last.Next-1]...)
		again, err := read(t, cut)
		if err != nil {
			t.Fatalf("torn copy of the last frame: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("torn tail changed the record: %+v vs %+v", again, rec)
		}
	})
}
