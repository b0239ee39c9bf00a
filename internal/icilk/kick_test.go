package icilk

import (
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestMasterKickServesLowLevelPromptly pins the event-driven master
// reallocation: work submitted at a level below every worker's mandate
// is invisible to all scans (each stops at its worker's floor), so
// without the kick it would wait out the master's quantum. With an
// absurdly long quantum the only way this test finishes quickly is the
// kick path.
func TestMasterKickServesLowLevelPromptly(t *testing.T) {
	rt := New(Config{
		Workers:    2,
		Levels:     3,
		Prioritize: true,
		Quantum:    2 * time.Second,
	})
	defer rt.Shutdown()

	start := time.Now()
	fut := Go(rt, nil, 0, "lo", func(c *Ctx) int { return 7 })
	v, err := Await(fut, 10*time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if v != 7 {
		t.Fatalf("got %d, want 7", v)
	}
	if elapsed >= rt.cfg.Quantum {
		t.Fatalf("low-level task waited out the %v quantum (%v); master kick not taken", rt.cfg.Quantum, elapsed)
	}
	if kicks := rt.Stats().MasterKicks; kicks < 1 {
		t.Fatalf("MasterKicks = %d, want >= 1", kicks)
	}
}

// TestIdleDrainedMasterSleeps pins the drained master: once nothing is
// outstanding and a reallocation has put every floor back at the top
// level, the master stops ticking; work submitted below the top after
// that still runs, because its submission kicks the master awake.
func TestIdleDrainedMasterSleeps(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 3, Prioritize: true})
	defer rt.Shutdown()
	top := int32(rt.cfg.Levels - 1)
	run := func(p Priority) {
		t.Helper()
		fut := Go(rt, nil, p, "work", func(*Ctx) int { return int(p) })
		if v, err := Await(fut, 10*time.Second); err != nil || v != int(p) {
			t.Fatalf("level %d: v=%d err=%v", p, v, err)
		}
		if err := rt.WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	awaitDrained := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rt.minAssign.Load() != top {
			if time.Now().After(deadline) {
				t.Fatalf("floors never returned to the top level: minAssign = %d", rt.minAssign.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, p := range []Priority{0, 1} {
		ticks := rt.stats.masterTicks.Load()
		run(p) // lowers a floor, so the master ticks until it raises it
		awaitDrained()
		if rt.stats.masterTicks.Load() == ticks {
			t.Fatalf("level %d: the master never ticked while a floor sat below the top", p)
		}
		ticks = rt.stats.masterTicks.Load()
		time.Sleep(200 * time.Millisecond)
		if got := rt.stats.masterTicks.Load() - ticks; got != 0 {
			t.Fatalf("drained master ticked %d times in 200ms, want 0", got)
		}
	}
}

// TestTouchClaimsInjectQueuedProducer pins claim-based touch helping: a
// producer spawned across levels lands in an inject queue, not the
// toucher's deque bottom, so the old bottom-of-own-deque help misses it
// and the toucher parks until a scan finds the producer. The claim path
// runs it inline. One worker and a long quantum make the old behavior a
// guaranteed multi-second stall; Helps >= 1 is the direct observable.
func TestTouchClaimsInjectQueuedProducer(t *testing.T) {
	rt := New(Config{
		Workers:    1,
		Levels:     2,
		Prioritize: true,
		Quantum:    2 * time.Second,
	})
	defer rt.Shutdown()

	start := time.Now()
	fut := Go(rt, nil, 0, "main", func(c *Ctx) int {
		// The worker serving us was mandated to level 0 (the kick path),
		// so this level-1 spawn misses the submit fast path and lands in
		// level 1's inject queue — exactly the shape helping used to miss.
		child := Go(rt, c, 1, "child", func(*Ctx) int { return 42 })
		return child.Touch(c)
	})
	v, err := Await(fut, 10*time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
	if elapsed >= rt.cfg.Quantum {
		t.Fatalf("touch stalled for the %v quantum (%v); claim-based helping not taken", rt.cfg.Quantum, elapsed)
	}
	if helps := rt.Stats().Helps; helps < 1 {
		t.Fatalf("Helps = %d, want >= 1", helps)
	}
}

// awaitAsleep blocks until Parks has reached want (every toucher has
// parked) and every worker is parked too — the "every request finds the
// machine asleep" state an idle server is in.
func awaitAsleep(t *testing.T, rt *Runtime, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Parks < want || int(rt.idle.Load()) != rt.cfg.Workers {
		if time.Now().After(deadline) {
			t.Fatalf("runtime never went idle: %d parks (want %d), %d/%d workers parked",
				rt.Stats().Parks, want, rt.idle.Load(), rt.cfg.Workers)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestIdleIOCompletionWakesAtOnce pins the one-wake-path contract for
// timer IO: with the toucher parked and every worker asleep, the
// completion itself broadcasts — the toucher resumes within scheduling
// noise of the timer callback. A second, coalescing timer between the
// two would cost over a millisecond here whatever its nominal window: a
// Go process with every thread asleep waits in epoll_wait at 1ms
// resolution.
func TestIdleIOCompletionWakesAtOnce(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	const trials = 21
	lat := make([]time.Duration, 0, trials)
	for i := 0; len(lat) < trials; i++ {
		if i == 4*trials {
			t.Fatalf("only %d of %d trials had the runtime asleep before the timer fired", len(lat), i)
		}
		parks0 := rt.Stats().Parks
		var fired atomic.Int64 // UnixNano of the timer callback
		io := IO(rt, 0, 20*time.Millisecond, func() int {
			fired.Store(time.Now().UnixNano())
			return i
		})
		fut := Go(rt, nil, 0, "toucher", func(c *Ctx) time.Duration {
			if v := io.Touch(c); v != i {
				t.Errorf("trial %d: IO value = %d", i, v)
			}
			return time.Duration(time.Now().UnixNano() - fired.Load())
		})
		awaitAsleep(t, rt, parks0+1)
		wakes0 := rt.Stats().Wakes
		asleepInTime := fired.Load() == 0
		d, err := Await(fut, 10*time.Second)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !asleepInTime {
			continue // a slow box: the timer beat us to it, the trial shows nothing
		}
		if got := rt.Stats().Wakes - wakes0; got != 1 {
			t.Fatalf("trial %d: completion on an idle runtime issued %d wake broadcasts, want 1", i, got)
		}
		lat = append(lat, d)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if med := lat[len(lat)/2]; med > 500*time.Microsecond {
		t.Fatalf("median completion→resume latency on an idle runtime = %v (all: %v), want < 500µs", med, lat)
	}
}

// TestIdleFailAfterWakesAtOnce is the same contract for deadline
// expiry: the timer's TryFail requeues the parked toucher and wakes a
// sleeping worker in the same call, with nothing left owing.
func TestIdleFailAfterWakesAtOnce(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	parks0 := rt.Stats().Parks
	pr := NewPromise[int](rt, 0)
	fut := Go(rt, nil, 0, "toucher", func(c *Ctx) int { return pr.Future().Touch(c) })
	awaitAsleep(t, rt, parks0+1)
	wakes0 := rt.Stats().Wakes
	pr.FailAfter(2 * time.Millisecond)
	if _, err := Await(fut, 10*time.Second); !errors.As(err, new(*DeadlineError)) {
		t.Fatalf("toucher ended with %v, want a DeadlineError", err)
	}
	if got := rt.Stats().Wakes - wakes0; got != 1 {
		t.Fatalf("deadline expiry on an idle runtime issued %d wake broadcasts, want 1", got)
	}
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFanInWakesOnce pins the fan-in cost of that path: a future with N
// parked waiters pushes all N and then wakes once — one broadcast on an
// idle runtime, not one per waiter.
func TestFanInWakesOnce(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	const n = 64
	parks0 := rt.Stats().Parks
	pr := NewPromise[int](rt, 0)
	futs := make([]Future[int], n)
	for i := range futs {
		futs[i] = Go(rt, nil, 0, "toucher", func(c *Ctx) int { return pr.Future().Touch(c) })
	}
	awaitAsleep(t, rt, parks0+n)
	wakes0 := rt.Stats().Wakes
	pr.Complete(9)
	for i, f := range futs {
		if v, err := Await(f, 10*time.Second); err != nil || v != 9 {
			t.Fatalf("toucher %d: v=%d err=%v", i, v, err)
		}
	}
	if got := rt.Stats().Wakes - wakes0; got != 1 {
		t.Fatalf("completing a future with %d parked waiters issued %d wake broadcasts, want 1", n, got)
	}
}

// TestTouchHelpingNeverClaimsRecycledProducer is the -race pin for the
// helper/finish window: a touch-time helper reads f.owner under f.mu and
// then claims it, and the producer may finish in between. A finished
// producer keeps the dispatch claim it ran under, so the helper's
// tryClaim fails and it parks, or finds the future done, instead of
// running the producer a second time. The generator below spawn/touches
// trivial children and publishes each handle before touching it; the
// spy on the other worker touches whatever was published last, so it
// keeps meeting futures whose producer is mid-flight or just finished.
func TestTouchHelpingNeverClaimsRecycledProducer(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()

	var latest atomic.Pointer[Handle]
	var stop atomic.Bool
	spy := Go(rt, nil, 0, "spy", func(c *Ctx) int {
		n := 0
		for !stop.Load() {
			if h := latest.Load(); h != nil {
				h.Touch(c)
				n++
			}
		}
		return n
	})
	gen := Go(rt, nil, 0, "gen", func(c *Ctx) int {
		defer stop.Store(true)
		for i := 0; i < 20000; i++ {
			h := Spawn(rt, c, 0, "child", func(*Ctx) any { return i })
			latest.Store(&h)
			if v := h.Touch(c).(int); v != i {
				t.Errorf("child %d returned %d", i, v)
			}
		}
		return 0
	})
	for _, f := range []Future[int]{gen, spy} {
		if _, err := Await(f, 60*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
