package icilk

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestPoolChurnStress churns spawn/touch pairs and externally
// completed promises from several tasks at once. Under -race it is the
// detector for a task or future written by one goroutine after another
// has already consumed it: every object is fresh, so any such write
// shows up as a data race on a live object. Tasks and futures are not
// pooled; the name is the test's history. The cases run both
// schedulers: "pooled" is the Cilk-F baseline, where all levels share
// one work-stealing pool, and "unpooled" the prioritized scheduler,
// which keeps the levels apart.
func TestPoolChurnStress(t *testing.T) {
	for _, tc := range []struct {
		name       string
		prioritize bool
	}{
		{"pooled", false},
		{"unpooled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(t, Config{Workers: 4, Levels: 2, Prioritize: tc.prioritize})

			prCh := make(chan Promise[int], 64)
			var completer sync.WaitGroup
			completer.Add(1)
			go func() {
				defer completer.Done()
				for pr := range prCh {
					pr.Complete(1)
				}
			}()

			const tasks, rounds = 8, 200
			futs := make([]Future[int], tasks)
			for k := range futs {
				futs[k] = Go(rt, nil, 1, "churn", func(c *Ctx) int {
					sum := 0
					for i := 0; i < rounds; i++ {
						h := Spawn(rt, c, 1, "child", func(*Ctx) any { return 1 })
						sum += h.Touch(c).(int)
						pr := NewPromiseIn[int](c, 1)
						prCh <- pr
						sum += pr.Future().Touch(c)
					}
					return sum
				})
			}
			for k, f := range futs {
				v, err := Await(f, 30*time.Second)
				if err != nil {
					t.Fatalf("churn task %d: %v", k, err)
				}
				if v != 2*rounds {
					t.Fatalf("churn task %d returned %d, want %d", k, v, 2*rounds)
				}
			}
			close(prCh)
			completer.Wait()
		})
	}
}

// TestFutureAllocCeilings pins the heap allocations of the future
// paths: a Spawn+Touch costs the task and the future, a promise round
// (NewPromiseIn, Complete, Touch) costs the future, an IO fired at a
// Checkpoint costs the future, its clock entry and the entry's
// callback, and touching a done future costs nothing.
func TestFutureAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	done := Completed(0, 1)
	one := func() int { return 1 }
	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func(c *Ctx)
	}{
		{"spawn+touch", 2, func(c *Ctx) {
			h := Spawn(rt, c, 0, "child", func(*Ctx) any { return 1 })
			h.Touch(c)
		}},
		{"promise complete+touch", 1, func(c *Ctx) {
			pr := NewPromiseIn[int](c, 0)
			pr.Complete(1)
			pr.Future().Touch(c)
		}},
		{"IO fired at a Checkpoint+touch", 3, func(c *Ctx) {
			f := IO(rt, 0, 0, one)
			c.Checkpoint()
			f.Touch(c)
		}},
		{"touch of a done future", 0, func(c *Ctx) { done.Touch(c) }},
	} {
		got, err := Await(Go(rt, nil, 0, "measure", func(c *Ctx) float64 {
			return testing.AllocsPerRun(1000, func() { tc.op(c) })
		}), 30*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocs/op", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestTaskSize pins the task record at 144 bytes or less (the 144-byte
// size class): every spawn allocates one, so its size is bytes per
// spawn. Delivery state lives on the parked goroutine's gctx, not here.
func TestTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got > 144 {
		t.Errorf("task is %d bytes, want <= 144", got)
	}
}

// TestWaitIdleOnIdleRuntimeAllocatesNothing: a drained runtime's
// WaitIdle returns before arming its timer.
func TestWaitIdleOnIdleRuntimeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	if _, err := Await(Go(rt, nil, 0, "one", func(*Ctx) int { return 1 }), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitIdle(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := rt.WaitIdle(time.Minute); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WaitIdle on an idle runtime: %.0f allocs, want 0", got)
	}
}

// TestDoneTouchNoPark pins the completed-future fast path: touching an
// already-done future — a Completed constant, a pre-resolved promise,
// or a spawned child forced through touch-time helping — never suspends
// the toucher. Parks counts task suspensions only, so the assertion is
// exact: zero parks across each run. The done and pre-resolved touches
// must hold whatever the worker count; the helping touch gets one
// worker, because with a second a thief can take the child between the
// spawn and the touch, and parking on a producer that is running
// elsewhere is the right move, not a bug.
func TestDoneTouchNoPark(t *testing.T) {
	run := func(workers, want int, body func(rt *Runtime, c *Ctx) int) {
		t.Helper()
		rt := New(Config{Workers: workers, Levels: 1})
		defer rt.Shutdown()
		parks0 := rt.Stats().Parks
		res := Go(rt, nil, 0, "done-toucher", func(c *Ctx) int { return body(rt, c) })
		v, err := Await(res, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("got %d, want %d", v, want)
		}
		if d := rt.Stats().Parks - parks0; d != 0 {
			t.Fatalf("touching done futures parked %d time(s) on %d worker(s), want 0", d, workers)
		}
	}

	run(2, 42, func(rt *Runtime, c *Ctx) int {
		pr := NewPromise[int](rt, 0)
		pr.Complete(5)
		return Completed(0, 37).Touch(c) + pr.Future().Touch(c)
	})
	run(1, 100, func(rt *Runtime, c *Ctx) int {
		// A spawned child touched immediately runs via helping (popped
		// from the own deque and executed inline), not via parking.
		h := Spawn(rt, c, 0, "helped", func(*Ctx) any { return 100 })
		return h.Touch(c).(int)
	})
}
