package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
)

// Typed decode failures. Each failure mode has its own sentinel so
// callers (and tests) can tell a wrong-version file from a damaged one.
var (
	// ErrSchema marks a checkpoint written by an incompatible format
	// version.
	ErrSchema = errors.New("ckpt: checkpoint schema mismatch")
	// ErrChecksum marks a checkpoint whose body does not match its
	// recorded CRC32 (bit rot, partial overwrite, manual edits).
	ErrChecksum = errors.New("ckpt: checkpoint checksum mismatch")
	// ErrTruncated marks a checkpoint that does not parse at all —
	// typically a write cut short.
	ErrTruncated = errors.New("ckpt: truncated or malformed checkpoint")
)

// envelope is the on-disk frame: the schema tag, an IEEE CRC32 over the
// raw body bytes, and the body itself. The CRC is computed over the
// exact serialized body, so any post-write corruption — inside the body
// or from truncation that happens to keep the JSON well-formed — is
// caught before the body is even parsed.
type envelope struct {
	Schema string          `json:"schema"`
	CRC32  uint32          `json:"crc32"`
	Body   json.RawMessage `json:"body"`
}

// Encode serializes a checkpoint into the versioned, checksummed v1
// envelope. Saves write the binary v2 format instead; v1 is the
// readable reference form — the JSON dump of any checkpoint, and the
// committed golden artifact the loader must keep reading.
func Encode(ck *Checkpoint) ([]byte, error) {
	if ck == nil {
		return nil, errors.New("ckpt: nil checkpoint")
	}
	body, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode body: %w", err)
	}
	data, err := json.Marshal(envelope{Schema: Schema, CRC32: crc32.ChecksumIEEE(body), Body: body})
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode envelope: %w", err)
	}
	return data, nil
}

// Decode parses and validates the v1 envelope. The checks run in
// order — shape, schema version, body checksum, body shape — so the
// error names the outermost failure. Telling v1 from the binary v2
// format is the loader's job (package waggle), not this reader's.
func Decode(data []byte) (*Checkpoint, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("%w: file says %q, this build reads %q", ErrSchema, env.Schema, Schema)
	}
	if got := crc32.ChecksumIEEE(env.Body); got != env.CRC32 {
		return nil, fmt.Errorf("%w: body CRC32 %08x, envelope says %08x", ErrChecksum, got, env.CRC32)
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Body, &ck); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrTruncated, err)
	}
	return &ck, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file:
// write, fsync the file, rename into place, fsync the directory. The
// file fsync keeps the rename from publishing a name whose contents
// are still in flight; the directory fsync makes the rename itself
// durable, so a crash immediately after a reported save cannot roll
// the path back to the previous checkpoint (or to nothing).
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync a directory handle (some network and
// overlay mounts) degrade to the pre-sync guarantee rather than
// failing the save.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.ENOTTY) {
			return nil
		}
		return fmt.Errorf("ckpt: sync dir %s: %w", dir, err)
	}
	return nil
}
