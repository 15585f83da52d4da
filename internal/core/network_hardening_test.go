package core

import (
	"errors"
	"testing"
)

// TestRunBudgetValidation pins the typed budget errors: negative
// budgets are rejected with a *BudgetError that unwraps to
// ErrInvalidBudget and names the offending parameter.
func TestRunBudgetValidation(t *testing.T) {
	net := buildNetwork(t, 4, false, 12)
	for _, tc := range []struct {
		name  string
		call  func() error
		param string
	}{
		{"delivered-negative-count", func() error { _, _, err := net.RunUntilDelivered(-1, 10); return err }, "count"},
		{"delivered-negative-max", func() error { _, _, err := net.RunUntilDelivered(1, -1); return err }, "maxSteps"},
		{"quiet-negative-max", func() error { _, _, err := net.RunUntilQuiet(-5); return err }, "maxSteps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, ErrInvalidBudget) {
				t.Fatalf("got %v, want ErrInvalidBudget", err)
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("got %T, want *BudgetError", err)
			}
			if be.Param != tc.param {
				t.Fatalf("error names param %q, want %q", be.Param, tc.param)
			}
		})
	}
	// Validation failures must not have stepped the world.
	if got := net.World().Time(); got != 0 {
		t.Fatalf("world stepped to t=%d during validation failures", got)
	}
}

// TestRunZeroBudgetIsCheckWithoutStepping pins the documented zero
// semantics: RunUntilDelivered(0, anything) succeeds immediately with
// an empty batch, and a zero maxSteps checks the current state without
// stepping.
func TestRunZeroBudgetIsCheckWithoutStepping(t *testing.T) {
	net := buildNetwork(t, 4, false, 12)
	msgs, steps, err := net.RunUntilDelivered(0, 0)
	if err != nil || steps != 0 || len(msgs) != 0 {
		t.Fatalf("RunUntilDelivered(0,0) = (%v, %d, %v), want empty success", msgs, steps, err)
	}
	// Zero count always succeeds, even with a huge budget: nothing to
	// wait for means nothing to step.
	msgs, steps, err = net.RunUntilDelivered(0, 1_000_000)
	if err != nil || steps != 0 || len(msgs) != 0 {
		t.Fatalf("RunUntilDelivered(0,big) = (%v, %d, %v), want empty success without stepping", msgs, steps, err)
	}
	if got := net.World().Time(); got != 0 {
		t.Fatalf("zero-count run stepped the world to t=%d", got)
	}
	// Zero maxSteps with an undelivered message pending: the check runs,
	// finds nothing delivered, and reports ErrNotDelivered — without
	// stepping.
	if err := net.Send(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, steps, err = net.RunUntilDelivered(1, 0)
	if !errors.Is(err, ErrNotDelivered) || steps != 0 {
		t.Fatalf("pending check = (%d, %v), want (0, ErrNotDelivered)", steps, err)
	}
	if got := net.World().Time(); got != 0 {
		t.Fatalf("zero-budget check stepped the world to t=%d", got)
	}
}

// TestCorruptCursorValidation pins the cursor hardening: consuming from
// a cursor outside [0, len(delivered)] fails with a *CursorError that
// unwraps to ErrCorruptCursor instead of a slice-bounds panic, and a
// valid cursor round-trips.
func TestCorruptCursorValidation(t *testing.T) {
	net := buildNetwork(t, 4, false, 12)
	if err := net.Send(0, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunUntilDelivered(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := net.Consumed(); got != 1 {
		t.Fatalf("consumed = %d, want 1", got)
	}
	for _, bad := range []int{-1, len(net.Delivered()) + 1, 1 << 20} {
		net.consumed = bad
		_, err := net.consume(0)
		if !errors.Is(err, ErrCorruptCursor) {
			t.Fatalf("consume at cursor %d = %v, want ErrCorruptCursor", bad, err)
		}
		var ce *CursorError
		if !errors.As(err, &ce) || ce.Consumed != bad {
			t.Fatalf("consume at cursor %d = %#v, want *CursorError naming it", bad, err)
		}
	}
	// Rewinding to a valid cursor re-exposes the message.
	net.consumed = 0
	msgs, _, err := net.RunUntilDelivered(1, 0)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("after rewind: (%v, %v), want the delivered message again", msgs, err)
	}
}
