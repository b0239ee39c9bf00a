package icilk

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestPoolChurnStress churns the pooled allocation paths — inline
// spawn/TouchRelease pairs and externally-completed promises — from
// several tasks at once, with pooling on and off. Under -race this is
// the recycling-hazard detector: a task or future handed back to the
// pool while another goroutine still writes it shows up as a data race
// on the reused object.
func TestPoolChurnStress(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"pooled", false},
		{"unpooled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Workers: 4, Levels: 2, Prioritize: true, DisablePooling: tc.disable})
			defer rt.Shutdown()

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
						sum += h.TouchRelease(c).(int)
						pr := NewPromiseIn[int](c, 1)
						prCh <- pr
						sum += pr.Future().TouchRelease(c)
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

			s := rt.Stats()
			if tc.disable && s.PoolHits != 0 {
				t.Fatalf("pooling disabled but PoolHits = %d", s.PoolHits)
			}
			if !tc.disable && s.PoolHits == 0 {
				t.Fatalf("pooling enabled but PoolHits = 0 after %d recycled rounds", tasks*rounds)
			}
		})
	}
}

// TestStaleHandleAfterRecycle asserts the generation-stamp contract:
// with DebugPooling set, touching a handle after TouchRelease recycled
// its future panics with a StaleHandleError (which the runtime turns
// into the touching task's failure) instead of silently reading the
// next occupant's value.
func TestStaleHandleAfterRecycle(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1, DebugPooling: true})
	defer rt.Shutdown()

	res := Go(rt, nil, 0, "stale-toucher", func(c *Ctx) int {
		f := Go(rt, c, 0, "child", func(*Ctx) int { return 7 })
		stale := f.Untyped() // minted against the current generation
		if v := f.TouchRelease(c); v != 7 {
			t.Errorf("TouchRelease returned %d, want 7", v)
		}
		return stale.Touch(c).(int) // future recycled: must panic
	})
	_, err := Await(res, 10*time.Second)
	var stale *StaleHandleError
	if !errors.As(err, &stale) {
		t.Fatalf("touch of recycled future: got err %v, want StaleHandleError", err)
	}
	if stale.Current <= stale.Minted {
		t.Fatalf("stale generations not increasing: minted %d, current %d",
			stale.Minted, stale.Current)
	}
}

// TestForwardCycleErrors builds a genuine cycle of thread handles — two
// promises each completed with a handle to the other — and checks that
// a forwarding touch terminates with a ForwardCycleError instead of
// chasing the cycle forever. A bounded TouchThroughN on the same cycle
// must instead return the still-carrier value as-is.
func TestForwardCycleErrors(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	pa := NewPromise[any](rt, 0)
	pb := NewPromise[any](rt, 0)
	pa.Complete(any(*pb.Future().Untyped()))
	pb.Complete(any(*pa.Future().Untyped()))

	bounded := Go(rt, nil, 0, "bounded", func(c *Ctx) int {
		v := pa.Future().Untyped().TouchThroughN(c, 3)
		if _, ok := v.(Handle); !ok {
			t.Errorf("TouchThroughN on a cycle returned %T, want a Handle carrier", v)
		}
		return 0
	})
	if _, err := Await(bounded, 10*time.Second); err != nil {
		t.Fatalf("bounded touch on cycle: %v", err)
	}

	res := Go(rt, nil, 0, "cycle-toucher", func(c *Ctx) int {
		pa.Future().Untyped().TouchThrough(c)
		return 0
	})
	_, err := Await(res, 10*time.Second)
	var cyc *ForwardCycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("TouchThrough on cycle: got err %v, want ForwardCycleError", err)
	}
	if cyc.Hops != maxForwardHops {
		t.Fatalf("cycle error after %d hops, want the full budget %d", cyc.Hops, maxForwardHops)
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
		return h.TouchRelease(c).(int)
	})
}
