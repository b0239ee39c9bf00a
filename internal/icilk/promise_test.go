package icilk

import (
	"errors"
	"testing"
	"time"
)

// TestPromiseCompletesTouchers checks the external completion path:
// touchers park on an unresolved promise and resume when an outside
// goroutine completes it.
func TestPromiseCompletesTouchers(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	pr := NewPromise[int](rt, 1)
	results := make(chan int, 3)
	for i := 0; i < 3; i++ {
		Go(rt, nil, 1, "toucher", func(c *Ctx) int {
			v := pr.Future().Touch(c)
			results <- v
			return v
		})
	}
	time.Sleep(10 * time.Millisecond) // let the touchers park
	pr.Complete(7)
	for i := 0; i < 3; i++ {
		select {
		case v := <-results:
			if v != 7 {
				t.Fatalf("toucher got %d, want 7", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("toucher never resumed after Complete")
		}
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
}

// TestPromiseOutstanding checks that an unresolved promise holds
// WaitIdle open (it is in-flight IO) and that resolution releases it.
func TestPromiseOutstanding(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	pr := NewPromise[string](rt, 0)
	if err := rt.WaitIdle(20 * time.Millisecond); err == nil {
		t.Fatal("WaitIdle returned with an unresolved promise outstanding")
	}
	pr.Complete("x")
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatalf("WaitIdle after Complete: %v", err)
	}
}

// TestPromiseFailPropagates checks that Fail surfaces as a panic in the
// toucher, which fails the toucher's own future — error propagation
// along join edges, same as a task panic.
func TestPromiseFailPropagates(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()

	pr := NewPromise[int](rt, 1)
	f := Go(rt, nil, 1, "toucher", func(c *Ctx) int {
		return pr.Future().Touch(c)
	})
	go pr.Fail(errors.New("device unplugged"))
	if _, err := Await(f, 5*time.Second); err == nil {
		t.Fatal("toucher future completed despite failed promise")
	}
}

// TestPromiseDoubleResolvePanics checks the single-assignment guard.
func TestPromiseDoubleResolvePanics(t *testing.T) {
	rt := New(Config{Workers: 1, Levels: 1})
	defer rt.Shutdown()

	pr := NewPromise[int](rt, 0)
	pr.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete did not panic")
		}
	}()
	pr.Complete(2)
}

// TestStalePromiseResolveDebug pins the completer-side generation
// check: with Config.Debug set, Complete on a promise whose future was
// already recycled by TouchRelease panics with a StaleHandleError
// instead of silently resolving the pooled cell (whose done flag was
// reset, so the double-resolution guard alone can no longer fire).
func TestStalePromiseResolveDebug(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1, Debug: true})
	defer rt.Shutdown()

	res := Go(rt, nil, 0, "stale-completer", func(c *Ctx) int {
		pr := NewPromiseIn[int](c, 0)
		pr.Complete(1)
		if v := pr.Future().TouchRelease(c); v != 1 {
			t.Errorf("TouchRelease = %d, want 1", v)
		}
		defer func() {
			if _, ok := recover().(*StaleHandleError); !ok {
				t.Error("Complete after recycle did not panic with StaleHandleError")
			}
		}()
		pr.Complete(2) // future recycled: must fail loudly
		return 0
	})
	if _, err := Await(res, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPromiseResolvedSurvivesRecycle checks that Resolved latches: it
// stays true after TouchRelease recycles the future — even once the
// pooled cell is re-issued to a new, unresolved promise — because the
// generation stamp identifies this incarnation, not the cell.
func TestPromiseResolvedSurvivesRecycle(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	res := Go(rt, nil, 0, "resolved-observer", func(c *Ctx) int {
		pr := NewPromiseIn[int](c, 0)
		if pr.Resolved() {
			t.Error("fresh promise reports Resolved")
		}
		pr.Complete(1)
		if !pr.Resolved() {
			t.Error("completed promise not Resolved")
		}
		pr.Future().TouchRelease(c)
		if !pr.Resolved() {
			t.Error("Resolved reverted to false after recycle")
		}
		// Re-issue the cell: the new incarnation's done=false must not
		// bleed into the old promise's answer.
		pr2 := NewPromiseIn[int](c, 0)
		if !pr.Resolved() {
			t.Error("Resolved reverted once the cell was re-issued")
		}
		if pr2.Resolved() {
			t.Error("fresh re-issued promise reports Resolved")
		}
		pr2.Complete(2)
		pr2.Future().TouchRelease(c)
		return 0
	})
	if _, err := Await(res, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCompleted checks the pre-resolved fast-path future.
func TestCompleted(t *testing.T) {
	rt := New(Config{Workers: 1, Levels: 2})
	defer rt.Shutdown()

	f := Completed(1, "ready")
	if !f.Done() {
		t.Fatal("Completed future is not done")
	}
	g := Go(rt, nil, 1, "toucher", func(c *Ctx) string { return f.Touch(c) })
	v, err := Await(g, 5*time.Second)
	if err != nil || v != "ready" {
		t.Fatalf("Touch of completed future = %q, %v", v, err)
	}
}
