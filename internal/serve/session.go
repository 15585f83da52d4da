package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"waggle"
)

// Session failure modes surfaced through the API layer.
var (
	errUnknownSession = errors.New("serve: unknown session")
	errBudget         = errors.New("serve: session step budget exhausted")
)

// session is one hosted swarm. Its lifecycle follows the state machine
// of DESIGN.md §5h: active → idle (untouched past Options.IdleAfter) →
// evicted (folded into the v2 delta chain at `path`, memory freed) →
// resumed (loaded and replayed on next touch; ≡ active with the resume
// counter bumped). Deletion is terminal from every state.
//
// The atomic fields are readable from any goroutine (the info/list
// endpoints and the janitor scan); swarm and writer are owned by the
// pinned shard worker — every mutation runs there — except during
// Shutdown, which touches them only after the pool has stopped.
// deleted is atomic because the lock-free info/list endpoints read it,
// but it is only ever set on the shard worker.
type session struct {
	id    string
	shard int
	path  string
	// streamPath is the session's waggle-stream/v1 file ("" when the
	// server runs without Options.Stream). The stream outlives
	// eviction: evict closes it, resume reopens it in append mode, and
	// the spectate endpoint tails the file without needing the session
	// resident.
	streamPath string

	touchNanos atomic.Int64
	evicted    atomic.Bool
	deleted    atomic.Bool
	resumes    atomic.Int64
	robots     atomic.Int64

	swarm  *waggle.Swarm
	writer *waggle.CheckpointWriter
}

// touch stamps the session as just-used (the idle clock the janitor
// reads).
func (sess *session) touch() { sess.touchNanos.Store(time.Now().UnixNano()) }

func (sess *session) lastTouch() time.Time { return time.Unix(0, sess.touchNanos.Load()) }

// resume loads the session's checkpoint chain and replays it into a
// live swarm — the transparent half of eviction: the restored run is
// byte-identical to one that was never evicted (internal/ckpt's
// round-trip guarantee). Runs on the shard worker.
func (sess *session) resume() error {
	ck, err := waggle.LoadCheckpoint(sess.path)
	if err != nil {
		return fmt.Errorf("serve: load %s: %w", sess.id, err)
	}
	res, err := waggle.Restore(ck)
	if err != nil {
		return fmt.Errorf("serve: restore %s: %w", sess.id, err)
	}
	w, err := res.Swarm.NewCheckpointWriter(sess.path)
	if err != nil {
		return fmt.Errorf("serve: rebuild writer %s: %w", sess.id, err)
	}
	if sess.streamPath != "" {
		// Reopen the movement stream in append mode: the restore replay
		// above did not re-stream history (the file already holds it),
		// and the reopen keyframe is the spectator's re-entry point.
		if _, err := res.Swarm.NewStreamWriter(sess.streamPath); err != nil {
			return fmt.Errorf("serve: reopen stream %s: %w", sess.id, err)
		}
	}
	sess.swarm, sess.writer = res.Swarm, w
	sess.robots.Store(int64(res.Swarm.N()))
	sess.resumes.Add(1)
	sess.evicted.Store(false)
	return nil
}

// evict folds the session into its checkpoint chain and frees the
// in-memory swarm. Runs on the shard worker, only on live sessions.
func (sess *session) evict() error {
	if err := sess.checkpoint(); err != nil {
		return err
	}
	if sw := sess.swarm.Stream(); sw != nil {
		// Best-effort: a failed close must not wedge eviction (stream
		// errors are sticky, so retrying the evict could never succeed)
		// — the resume path's reopen-append truncates whatever torn
		// tail the failure left, exactly as a crash would.
		_ = sw.Close()
	}
	sess.swarm, sess.writer = nil, nil
	sess.evicted.Store(true)
	return nil
}

// checkpoint appends the session's latest state to its chain (a delta
// frame; a base when the chain needs rebasing).
func (sess *session) checkpoint() error {
	if sess.writer == nil {
		return fmt.Errorf("serve: session %s has no checkpoint writer", sess.id)
	}
	return sess.writer.Save()
}

// remove deletes the session's state and chain file. Terminal; runs on
// the shard worker (or after the pool stopped).
func (sess *session) remove() error {
	sess.deleted.Store(true)
	if sess.swarm != nil {
		if sw := sess.swarm.Stream(); sw != nil {
			_ = sw.Close()
		}
	}
	sess.swarm, sess.writer = nil, nil
	if err := os.Remove(sess.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("serve: remove %s: %w", sess.id, err)
	}
	if sess.streamPath != "" {
		if err := os.Remove(sess.streamPath); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("serve: remove stream %s: %w", sess.id, err)
		}
	}
	return nil
}

// state names the session's current lifecycle state for the API.
func (sess *session) state(idleAfter time.Duration) string {
	switch {
	case sess.deleted.Load():
		return "deleted"
	case sess.evicted.Load():
		return "evicted"
	case time.Since(sess.lastTouch()) >= idleAfter:
		return "idle"
	default:
		return "active"
	}
}

// withSession runs fn on the session's shard with the session live:
// an evicted session is transparently resumed first, and the touch
// stamp is refreshed. fn's error is passed through; submission
// failures (draining/busy/expired) surface as-is.
func (s *Server) withSession(ctx context.Context, id string, fn func(*session) error) error {
	s.mu.RLock()
	sess := s.sessions[id]
	s.mu.RUnlock()
	if sess == nil {
		return errUnknownSession
	}
	var opErr error
	err := s.run(ctx, sess.shard, func() {
		if sess.deleted.Load() {
			opErr = errUnknownSession
			return
		}
		if sess.evicted.Load() {
			if opErr = sess.resume(); opErr != nil {
				return
			}
			s.active.Add(1)
			s.evicted.Add(-1)
			s.m.Resumes.Inc()
			s.publishGauges()
		}
		sess.touch()
		opErr = fn(sess)
	})
	if err != nil {
		return err
	}
	return opErr
}
