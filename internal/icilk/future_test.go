package icilk

import (
	"sync"
	"testing"
	"time"
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
// (NewPromiseIn, Complete, Touch) costs the future, and touching a done
// future costs nothing.
func TestFutureAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	done := Completed(0, 1)
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

// TestForwardCycleErrors builds a genuine cycle of thread handles — two
// promises each completed with a handle to the other — and checks that
// a forwarding touch on it terminates: TouchThroughN takes its budget of
// hops and returns the still-carrier value as-is instead of chasing the
// cycle forever, and an oversized budget is clamped to maxForwardHops.
func TestForwardCycleErrors(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	pa := NewPromise[any](rt, 0)
	pb := NewPromise[any](rt, 0)
	pa.Complete(any(*pb.Future().Untyped()))
	pb.Complete(any(*pa.Future().Untyped()))

	for _, n := range []int{3, 1 << 30} {
		fwd0 := rt.Stats().ForwardedTouches
		bounded := Go(rt, nil, 0, "bounded", func(c *Ctx) int {
			v := pa.Future().Untyped().TouchThroughN(c, n)
			if _, ok := v.(Handle); !ok {
				t.Errorf("TouchThroughN(%d) on a cycle returned %T, want a Handle carrier", n, v)
			}
			return 0
		})
		if _, err := Await(bounded, 10*time.Second); err != nil {
			t.Fatalf("bounded touch on cycle: %v", err)
		}
		if got, want := rt.Stats().ForwardedTouches-fwd0, int64(min(n, maxForwardHops)); got != want {
			t.Errorf("TouchThroughN(%d) on a cycle took %d hops, want %d", n, got, want)
		}
	}
}

// TestForwardingMigratesParkedToucher drives completion-side forwarding
// across a whole chain: K promises, each completed with a handle to the
// next and the last with an int, completed from outside the runtime one
// by one after the toucher has parked on the head. With a budget of K-1
// hops every completion migrates the parked toucher onto the next
// promise, so it parks once and wakes once with the value; with K-2 the
// budget runs out one promise short and the toucher wakes holding the
// last carrier.
func TestForwardingMigratesParkedToucher(t *testing.T) {
	const K = 8
	for _, budget := range []int{K - 1, K - 2} {
		rt := New(Config{Workers: 2, Levels: 1})
		defer rt.Shutdown()
		prs := make([]Promise[any], K)
		for i := range prs {
			prs[i] = NewPromise[any](rt, 0)
		}
		head := prs[0].Future().Untyped()
		s0 := rt.Stats()
		res := Go(rt, nil, 0, "chain-toucher", func(c *Ctx) any { return head.TouchThroughN(c, budget) })
		waitStat(t, "parks", func() int64 { return rt.Stats().Parks }, s0.Parks+1)
		for i := 0; i < K-1; i++ {
			prs[i].Complete(any(*prs[i+1].Future().Untyped()))
			// While budget remains, the migration happens inside
			// Complete: the hop is counted before it returns, and the
			// toucher is never resumed in between.
			if s := rt.Stats(); i < budget && (s.ForwardedTouches-s0.ForwardedTouches != int64(i+1) || s.Resumes != s0.Resumes) {
				t.Fatalf("budget %d, promise %d completed: %d hops and %d resumes, want %d and 0",
					budget, i, s.ForwardedTouches-s0.ForwardedTouches, s.Resumes-s0.Resumes, i+1)
			}
		}
		prs[K-1].Complete(any(42))
		v, err := Await(res, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(Handle); budget == K-1 && v != 42 || budget == K-2 && !ok {
			t.Errorf("budget %d: got %v (%T)", budget, v, v)
		}
		s := rt.Stats()
		if d := s.Parks - s0.Parks; d != 1 {
			t.Errorf("budget %d: %d parks, want 1", budget, d)
		}
		if d := s.ForwardedTouches - s0.ForwardedTouches; d != int64(budget) {
			t.Errorf("budget %d: %d forwarded touches, want %d", budget, d, budget)
		}
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
