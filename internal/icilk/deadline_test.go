package icilk

import (
	"errors"
	"testing"
	"time"
)

func TestFailAfterFailsTouchers(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2})
	pr := NewPromise[int](rt, 1)
	pr.FailAfter(2 * time.Millisecond)
	f := Go(rt, nil, 1, "toucher", func(c *Ctx) int {
		return pr.Future().Touch(c)
	})
	_, err := Await(f, 5*time.Second)
	if err == nil {
		t.Fatal("touch of a deadline-failed future returned a value")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("toucher failed with %v, want a DeadlineError", err)
	}
	if de.After != 2*time.Millisecond {
		t.Errorf("DeadlineError.After = %v, want 2ms", de.After)
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatalf("runtime did not drain after deadline: %v", err)
	}
	if n := rt.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after drain, want 0", n)
	}
}

func TestTryCompleteBeatsDeadline(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	pr := NewPromise[int](rt, 0)
	cancel := pr.FailAfter(time.Hour)
	if !pr.TryComplete(42) {
		t.Fatal("TryComplete on an unresolved promise returned false")
	}
	cancel()
	if pr.TryComplete(43) {
		t.Fatal("second TryComplete returned true")
	}
	f := Go(rt, nil, 0, "toucher", func(c *Ctx) int {
		return pr.Future().Touch(c)
	})
	if v, err := Await(f, 5*time.Second); err != nil || v != 42 {
		t.Fatalf("Touch = (%d, %v), want (42, nil)", v, err)
	}
}

func TestDeadlineBeatsTryComplete(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	pr := NewPromise[int](rt, 0)
	pr.FailAfter(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for !pr.Resolved() {
		if time.Now().After(deadline) {
			t.Fatal("deadline never fired")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if pr.TryComplete(1) {
		t.Fatal("TryComplete after the deadline fired returned true")
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatalf("runtime did not drain: %v", err)
	}
}

// A FailAfter timer left armed past the future's release must lose the
// generation-stamp check inside tryFinish rather than resolving whatever
// incarnation now occupies the recycled cell.
func TestFailAfterLateFiringIsHarmless(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	f := Go(rt, nil, 0, "driver", func(c *Ctx) int {
		pr := NewPromiseIn[int](c, 0)
		pr.FailAfter(time.Millisecond) // deliberately never canceled
		if !pr.TryComplete(7) {
			t.Error("TryComplete lost to a deadline that has not fired")
		}
		if got := pr.Future().TouchRelease(c); got != 7 {
			t.Errorf("TouchRelease = %d, want 7", got)
		}
		// The released cell goes straight back to this worker's stripe;
		// the next promise reuses it. Hold it unresolved across the stale
		// timer's firing.
		pr2 := NewPromiseIn[int](c, 0)
		time.Sleep(5 * time.Millisecond)
		if pr2.Resolved() {
			t.Error("stale deadline resolved a recycled incarnation")
		}
		pr2.Complete(1)
		if got := pr2.Future().TouchRelease(c); got != 1 {
			t.Errorf("second incarnation TouchRelease = %d, want 1", got)
		}
		return 0
	})
	if _, err := Await(f, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatalf("runtime did not drain: %v", err)
	}
	if n := rt.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after drain, want 0", n)
	}
}
