package queen

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"waggle"
	"waggle/internal/ckpt"
	"waggle/internal/wire"
)

// The repo has three append-only durable formats, all on the one frame
// discipline of wire/log.go and each promising the same crash contract:
// a writer killed mid-append costs exactly the torn trailing record,
// never the file. This suite drives all three — waggle-stream/v1
// (wire.TailStream), the WCD2 checkpoint delta chain (wire.DecodeChain)
// and the queen's journal (readJournal) — through the same table of
// mutilations: the final record cut mid-magic, mid-length-header,
// mid-CRC, and mid-body, plus a complete final record with a corrupted
// body, plus a short tail that is not a prefix of any magic. Every cut
// must load as exactly the clean prefix, and reopening the format's
// writer on it and appending one record must leave exactly the clean
// prefix plus that record. The corrupt body and the foreign tail cannot
// be crash artifacts and must be refused.

// tornFormat adapts one format to the shared table.
type tornFormat struct {
	name string
	// build writes a valid multi-record file into dir and returns its
	// bytes plus the offset where the final appended record starts.
	build func(t *testing.T, dir string) (data []byte, lastRec int64)
	// read parses data and returns a comparable recovered state. torn
	// is the reader's explicit torn-tail report (always false for
	// readers that tolerate silently).
	read func(t *testing.T, dir string, data []byte) (state any, torn bool, err error)
	// reopen reopens the format's writer on the file at path, the way a
	// restarted process does, and appends one record.
	reopen func(t *testing.T, path string)
	// cuts maps the shared cut names to byte offsets inside the final
	// record [lastRec, end).
	cuts func(data []byte, lastRec int64) map[string]int64
	// reportsTorn: the reader surfaces torn=true on a cut tail.
	reportsTorn bool
	// corruptAt returns the offset whose byte the corruption case
	// flips, leaving the record complete but its body wrong.
	corruptAt func(data []byte) int64
	// wantCorruptErr: the corrupted-body case must fail with
	// ErrChecksum rather than be dropped as a torn tail.
	wantCorruptErr bool
}

// framedCuts computes the cut table for the binary formats, whose
// final record is magic | uvarint(len) | crc32 ... | body.
func framedCuts(data []byte, lastRec int64, magicLen int) map[string]int64 {
	_, lenN := binary.Uvarint(data[lastRec+int64(magicLen):])
	return map[string]int64{
		"mid-magic":  lastRec + int64(magicLen)/2,
		"mid-length": lastRec + int64(magicLen),
		"mid-crc":    lastRec + int64(magicLen) + int64(lenN) + 2,
		"mid-body":   int64(len(data)) - 1,
	}
}

func tornFormats() []tornFormat {
	return []tornFormat{
		{
			name: "waggle-stream-v1",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.wstream")
				sw, err := wire.OpenStream(path, 3, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.AppendKeyframe(0, []ckpt.XY{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}, 0, ""); err != nil {
					t.Fatal(err)
				}
				last := int64(0)
				for i := 0; i < 4; i++ {
					last = sw.Offset()
					err := sw.AppendStep(i, []wire.StreamMove{{Robot: i % 3, To: ckpt.XY{X: float64(i + 1), Y: 1}}},
						[]int{i % 3}, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				recs, torn, err := wire.DecodeStream(data)
				return recs, torn, err
			},
			reopen: func(t *testing.T, path string) {
				sw, err := wire.OpenStream(path, 3, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.AppendKeyframe(9, []ckpt.XY{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}}, 0, ""); err != nil {
					t.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					t.Fatal(err)
				}
			},
			cuts: func(data []byte, lastRec int64) map[string]int64 {
				return framedCuts(data, lastRec, 4)
			},
			reportsTorn:    true,
			corruptAt:      func(data []byte) int64 { return int64(len(data)) - 1 },
			wantCorruptErr: true,
		},
		{
			name: "wcd2-delta-chain",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.wck")
				s, err := waggle.NewSwarm([]waggle.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}}, waggle.WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				cw, err := s.NewCheckpointWriter(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := cw.Save(); err != nil { // base frame
					t.Fatal(err)
				}
				last := int64(0)
				for i := 0; i < 3; i++ {
					if err := s.Send(i, (i+1)%3, []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					last = st.Size()
					if err := cw.Save(); err != nil {
						t.Fatal(err)
					}
					if !cw.LastSaveWasDelta() {
						t.Fatalf("save %d was not a delta append", i)
					}
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				ck, err := wire.DecodeChain(data)
				return ck, false, err
			},
			reopen: func(t *testing.T, path string) {
				ck, err := waggle.LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				res, err := waggle.Restore(ck)
				if err != nil {
					t.Fatal(err)
				}
				cw, err := res.Swarm.NewCheckpointWriter(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Swarm.Send(2, 0, []byte{9}); err != nil {
					t.Fatal(err)
				}
				if err := cw.Save(); err != nil {
					t.Fatal(err)
				}
				if !cw.LastSaveWasDelta() {
					t.Fatal("save after reopening the chain was not a delta append")
				}
			},
			cuts: func(data []byte, lastRec int64) map[string]int64 {
				return framedCuts(data, lastRec, 4)
			},
			corruptAt:      func(data []byte) int64 { return int64(len(data)) - 1 },
			wantCorruptErr: true,
		},
		{
			name: "queen-journal",
			build: func(t *testing.T, dir string) ([]byte, int64) {
				path := filepath.Join(dir, "torn.journal")
				jw, err := openJournal(path, Spec{Kind: "chaos", Seed: 7, Names: []string{"a", "b"}})
				if err != nil {
					t.Fatal(err)
				}
				last := int64(0)
				for _, shard := range []string{"a", "b"} {
					st, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					last = st.Size()
					if err := jw.appendDone(shard, json.RawMessage(`{"ok":true}`)); err != nil {
						t.Fatal(err)
					}
				}
				jw.close()
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				return data, last
			},
			read: func(t *testing.T, dir string, data []byte) (any, bool, error) {
				path := filepath.Join(dir, "read.journal")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				rec, err := readJournal(path)
				return rec, false, err
			},
			reopen: func(t *testing.T, path string) {
				jw, err := openJournal(path, Spec{Kind: "chaos", Seed: 7, Names: []string{"a", "b"}})
				if err != nil {
					t.Fatal(err)
				}
				defer jw.close()
				if err := jw.appendDone("b", json.RawMessage(`{"ok":false}`)); err != nil {
					t.Fatal(err)
				}
			},
			cuts: func(data []byte, lastRec int64) map[string]int64 {
				return framedCuts(data, lastRec, 4)
			},
			corruptAt:      func(data []byte) int64 { return int64(len(data)) - 1 },
			wantCorruptErr: true,
		},
	}
}

// TestTornTailSuite is the shared crash-contract table: for every
// format, every cut of the final record loads as exactly the clean
// prefix and reopens to exactly the clean prefix plus the appended
// record, while a complete-but-corrupt final record and a tail that is
// no magic prefix are refused.
func TestTornTailSuite(t *testing.T) {
	for _, f := range tornFormats() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			data, lastRec := f.build(t, dir)
			if lastRec <= 0 || lastRec >= int64(len(data)) {
				t.Fatalf("build returned lastRec=%d for a %d-byte file", lastRec, len(data))
			}

			full, torn, err := f.read(t, dir, data)
			if err != nil || torn {
				t.Fatalf("clean file: torn=%v err=%v", torn, err)
			}
			want, torn, err := f.read(t, dir, data[:lastRec])
			if err != nil || torn {
				t.Fatalf("clean prefix: torn=%v err=%v", torn, err)
			}
			if reflect.DeepEqual(full, want) {
				t.Fatalf("final record does not change the loaded state; the cuts below would prove nothing")
			}
			// The writer reopened on the clean prefix appends one record
			// after it; on every cut it must write the same bytes.
			wantFile := reopened(t, f, data[:lastRec])
			if len(wantFile) <= int(lastRec) || !bytes.Equal(wantFile[:lastRec], data[:lastRec]) {
				t.Fatalf("reopen on the clean prefix did not append after it")
			}
			if got, torn, err := f.read(t, dir, wantFile); err != nil || torn || reflect.DeepEqual(got, want) {
				t.Fatalf("reopened clean prefix: torn=%v err=%v, or the appended record was lost", torn, err)
			}

			for name, cut := range f.cuts(data, lastRec) {
				if cut <= lastRec || cut >= int64(len(data)) {
					t.Fatalf("%s: cut offset %d outside the final record [%d, %d)", name, cut, lastRec, len(data))
				}
				got, torn, err := f.read(t, dir, data[:cut])
				if err != nil {
					t.Errorf("%s (cut at %d): read failed: %v", name, cut, err)
					continue
				}
				if torn != f.reportsTorn {
					t.Errorf("%s: torn=%v, want %v", name, torn, f.reportsTorn)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: cut file did not load as the clean prefix", name)
				}
				if !bytes.Equal(reopened(t, f, data[:cut]), wantFile) {
					t.Errorf("%s: reopen + append did not leave the clean prefix plus one record", name)
				}
			}

			foreign := append(append([]byte(nil), data[:lastRec]...), "XY"...)
			if _, _, err := f.read(t, dir, foreign); !errors.Is(err, ckpt.ErrSchema) {
				t.Errorf("tail that is no magic prefix: err=%v, want ErrSchema", err)
			}

			mutated := append([]byte(nil), data...)
			mutated[f.corruptAt(data)] ^= 0x01
			got, torn, err := f.read(t, dir, mutated)
			if f.wantCorruptErr {
				if !errors.Is(err, ckpt.ErrChecksum) {
					t.Errorf("corrupt body: err=%v, want ErrChecksum", err)
				}
			} else {
				if err != nil || torn {
					t.Errorf("corrupt final line: torn=%v err=%v, want tolerated", torn, err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("corrupt final line did not load as the clean prefix")
				}
			}
		})
	}
}

// reopened writes data to a fresh file, runs the format's reopen (which
// appends one record) on it, and returns the file's bytes.
func reopened(t *testing.T, f tornFormat, data []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reopen")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.reopen(t, path)
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJournalRejectsMidFileCorruption pins the boundary of the
// journal's tolerance: a malformed line is forgiven only as the final
// line. The same corruption one record earlier is an error.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	f := tornFormats()[2]
	if f.name != "queen-journal" {
		t.Fatal("format table reordered")
	}
	data, lastRec := f.build(t, dir)
	mutated := append([]byte(nil), data...)
	mutated[lastRec-2] ^= 0x01 // inside the second-to-last line
	if _, _, err := f.read(t, dir, mutated); err == nil {
		t.Fatal("mid-file corruption was tolerated; only the final line may be torn")
	}
}
