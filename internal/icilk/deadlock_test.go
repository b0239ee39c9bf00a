package icilk

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDeadlockDetected sets up the classic AB/BA circular wait with the
// detector on: t1 holds A and then wants B; t2 holds B and then wants A.
// Two gate promises sequence the acquires so both locks are held before
// either task requests its second lock (with one gate, t2 could run
// through B and A before a slow t1 had taken A at all — no cycle). Whichever task closes the cycle
// second must panic with a DeadlockError naming both locks; the other
// task stays parked forever (the deadlock is reported, not resolved), so
// the test only Awaits the futures briefly and accepts either one (or
// both) failing with the error.
func TestDeadlockDetected(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()

	A := NewMutex(rt, 1, "A")
	B := NewMutex(rt, 1, "B")
	gate, heldA := NewPromise[int](rt, 1), NewPromise[int](rt, 1)

	f1 := Go(rt, nil, 0, "t1", func(c *Ctx) int {
		A.Lock(c)
		heldA.Complete(0)
		gate.Future().Touch(c) // hold A until t2 holds B
		B.Lock(c)              // cycle closes here or in t2
		B.Unlock(c)
		A.Unlock(c)
		return 1
	})
	f2 := Go(rt, nil, 0, "t2", func(c *Ctx) int {
		B.Lock(c)
		heldA.Future().Touch(c) // hold B until t1 holds A
		gate.Complete(0)
		A.Lock(c)
		A.Unlock(c)
		B.Unlock(c)
		return 2
	})

	deadline := time.After(5 * time.Second)
	errCh := make(chan error, 2)
	for _, f := range []Future[int]{f1, f2} {
		f := f
		go func() {
			_, err := Await(f, 2*time.Second)
			errCh <- err
		}()
	}
	var found *DeadlockError
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			var dl *DeadlockError
			if errors.As(err, &dl) {
				found = dl
			}
		case <-deadline:
			t.Fatal("timed out waiting for the tasks")
		}
	}
	if found == nil {
		t.Fatal("no DeadlockError surfaced from either task")
	}
	for _, want := range []string{`"A"`, `"B"`} {
		if !strings.Contains(found.Cycle, want) {
			t.Errorf("cycle %q does not mention lock %s", found.Cycle, want)
		}
	}
}

// TestDeadlockRWMutexWriteCycle is the same shape through RWMutex write
// holders: the walk follows wowner exactly like a Mutex owner.
func TestDeadlockRWMutexWriteCycle(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()

	A := NewRWMutex(rt, 1, 1, "rwA")
	B := NewRWMutex(rt, 1, 1, "rwB")
	gate, heldA := NewPromise[int](rt, 1), NewPromise[int](rt, 1)

	f1 := Go(rt, nil, 0, "w1", func(c *Ctx) int {
		A.Lock(c)
		heldA.Complete(0)
		gate.Future().Touch(c)
		B.Lock(c)
		B.Unlock(c)
		A.Unlock(c)
		return 1
	})
	f2 := Go(rt, nil, 0, "w2", func(c *Ctx) int {
		B.Lock(c)
		heldA.Future().Touch(c)
		gate.Complete(0)
		A.Lock(c)
		A.Unlock(c)
		B.Unlock(c)
		return 2
	})

	errCh := make(chan error, 2)
	for _, f := range []Future[int]{f1, f2} {
		f := f
		go func() {
			_, err := Await(f, 2*time.Second)
			errCh <- err
		}()
	}
	var found *DeadlockError
	for i := 0; i < 2; i++ {
		err := <-errCh
		var dl *DeadlockError
		if errors.As(err, &dl) {
			found = dl
		}
	}
	if found == nil {
		t.Fatal("no DeadlockError surfaced from either writer")
	}
	if !strings.Contains(found.Cycle, `"rwA"`) || !strings.Contains(found.Cycle, `"rwB"`) {
		t.Errorf("cycle %q does not mention both rwmutexes", found.Cycle)
	}
}

// TestNoFalseDeadlock drives plain contention (no cycle) with the
// detector on: N tasks hammering one Mutex across a park-inducing handoff
// must all complete without a spurious DeadlockError.
func TestNoFalseDeadlock(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()

	m := NewMutex(rt, 1, "only")
	var futs []Future[int]
	for i := 0; i < 8; i++ {
		futs = append(futs, Go(rt, nil, Priority(i%2), "worker", func(c *Ctx) int {
			for j := 0; j < 50; j++ {
				m.Lock(c)
				m.Unlock(c)
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatalf("spurious failure under contention: %v", err)
		}
	}
}
