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
	// A plain Touch of a future whose value is a Handle returns that
	// Handle, not the value behind it.
	inner := *Completed(1, 42).Untyped()
	hp := NewPromise[Handle](rt, 1)
	hf := Go(rt, nil, 1, "handle-toucher", func(c *Ctx) any {
		return hp.Future().Untyped().Touch(c)
	})
	time.Sleep(10 * time.Millisecond) // let the touchers park
	pr.Complete(7)
	hp.Complete(inner)
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
	if hv, err := Await(hf, 5*time.Second); err != nil || hv != any(inner) {
		t.Fatalf("Touch of a future holding a Handle = %v (%T), %v; want the Handle", hv, hv, err)
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
