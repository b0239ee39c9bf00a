package icilk

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRefLoadStoreUpdate(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	r := NewRef(rt, 1, 10)
	fut := Go(rt, nil, 1, "ref", func(c *Ctx) int {
		if v := r.Load(c); v != 10 {
			t.Errorf("Load = %d, want 10", v)
		}
		r.Store(c, 20)
		return r.Update(c, func(v int) int { return v + 2 })
	})
	v, err := Await(fut, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != 22 {
		t.Errorf("Update = %d, want 22", v)
	}
	// External (non-task) access carries no priority and is always
	// allowed.
	if v := r.Load(nil); v != 22 {
		t.Errorf("external Load = %d, want 22", v)
	}
}

func TestRefUpdateAtomicUnderContention(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 3, Prioritize: true})
	r := NewRef[int64](rt, 2, 0)
	const tasks, incs = 60, 50
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		p := Priority(i % 3)
		futs = append(futs, Go(rt, nil, p, "inc", func(c *Ctx) int {
			for n := 0; n < incs; n++ {
				r.Update(c, func(v int64) int64 { return v + 1 })
				if n%16 == 0 {
					c.Checkpoint()
				}
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if v := r.Load(nil); v != tasks*incs {
		t.Errorf("counter = %d, want %d", v, tasks*incs)
	}
}

// TestRefCeilingViolation mirrors TestPriorityInversionDetected for
// state: accessing a Ref from above its ceiling is the inversion the
// λ4i state typing (Fig. 12) rules out, detected dynamically.
func TestRefCeilingViolation(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	r := NewRef(rt, 0, 0)
	fut := Go(rt, nil, 1, "high", func(c *Ctx) int {
		return r.Load(c) // prio 1 > ceiling 0: violation
	})
	_, err := Await(fut, 5*time.Second)
	if err == nil {
		t.Fatal("expected a ceiling violation error")
	}
	var inv *PriorityInversionError
	if !errors.As(err, &inv) {
		t.Fatalf("error should wrap PriorityInversionError: %v", err)
	}
	if inv.Toucher != 1 || inv.Touched != 0 {
		t.Errorf("violation details wrong: %+v", inv)
	}
	if rt.Stats().CeilingViolations == 0 {
		t.Error("CeilingViolations counter not incremented")
	}
}

// TestMutexCeilingViolation is the Mutex twin of the Touch inversion
// test: Lock from above the ceiling panics a PriorityInversionError,
// and disabling the check (the unsound-but-fast mode) lets it through.
func TestMutexCeilingViolation(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	m := NewMutex(rt, 0, "test")
	fut := Go(rt, nil, 1, "high", func(c *Ctx) int {
		m.Lock(c)
		m.Unlock(c)
		return 0
	})
	_, err := Await(fut, 5*time.Second)
	var inv *PriorityInversionError
	if err == nil || !errors.As(err, &inv) {
		t.Fatalf("want PriorityInversionError, got %v", err)
	}
	if rt.Stats().CeilingViolations == 0 {
		t.Error("CeilingViolations counter not incremented")
	}
}

// TestMutexMutualExclusion drives a plain int through critical sections
// that deliberately park mid-hold (an IO touch while holding the lock),
// from tasks at three levels. Any mutual-exclusion bug shows up as a
// lost update; any handoff bug as a hang.
func TestMutexMutualExclusion(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 3, Prioritize: true})
	m := NewMutex(rt, 2, "counter")
	counter := 0
	const tasks = 48
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		p := Priority(i % 3)
		park := i%4 == 0
		futs = append(futs, Go(rt, nil, p, "cs", func(c *Ctx) int {
			m.Lock(c)
			v := counter
			if park {
				IO(rt, p, 100*time.Microsecond, func() int { return 0 }).Touch(c)
			}
			counter = v + 1
			m.Unlock(c)
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if counter != tasks {
		t.Errorf("counter = %d, want %d (lost updates)", counter, tasks)
	}
	if rt.Stats().MutexParks == 0 {
		t.Error("expected contended Lock parks")
	}
}

func TestMutexTryLock(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	m := NewMutex(rt, 0, "try")
	gate := NewPromise[int](rt, 0)
	held := make(chan struct{})
	holder := Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(held)
		gate.Future().Touch(c)
		m.Unlock(c)
		return 0
	})
	<-held
	probe := Go(rt, nil, 0, "probe", func(c *Ctx) int {
		if m.TryLock(c) {
			m.Unlock(c)
			return 1 // lock was free: wrong
		}
		return 0
	})
	if v, err := Await(probe, 5*time.Second); err != nil || v != 0 {
		t.Fatalf("TryLock on held mutex: v=%d err=%v", v, err)
	}
	gate.Complete(0)
	if _, err := Await(holder, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	after := Go(rt, nil, 0, "after", func(c *Ctx) int {
		if !m.TryLock(c) {
			return 0
		}
		m.Unlock(c)
		return 1
	})
	if v, err := Await(after, 5*time.Second); err != nil || v != 1 {
		t.Fatalf("TryLock on free mutex: v=%d err=%v", v, err)
	}
}

// inheritanceScenario builds the deterministic inversion: one worker,
// two levels. A low task takes the lock and parks on a gate promise
// while holding it; two low spinners then monopolize the only worker's
// deque; a high task blocks on the lock. Completing the gate requeues
// the holder — without inheritance it lands at level 0 behind the
// spinners (the running one yields straight back onto the worker's own
// deque, so the injection queue starves) and the high task never runs;
// with inheritance the holder was boosted to the waiter's level, so its
// requeue lands at level 1, the worker's next scan takes it, and the
// chain unwinds.
func inheritanceScenario(t *testing.T, rt *Runtime) (high Future[int], gate Promise[int], stopSpin *atomic.Bool) {
	t.Helper()
	m := NewMutex(rt, 1, "inherit")
	gate = NewPromise[int](rt, 0)
	stopSpin = &atomic.Bool{}
	locked := make(chan struct{})
	Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(locked)
		gate.Future().Touch(c) // park while holding
		m.Unlock(c)
		return 0
	})
	select {
	case <-locked:
	case <-time.After(5 * time.Second):
		t.Fatal("holder never acquired the lock")
	}
	for range 2 {
		Go(rt, nil, 0, "spinner", func(c *Ctx) int {
			for !stopSpin.Load() {
				busyFor(100 * time.Microsecond)
				c.Yield()
			}
			return 0
		})
	}
	time.Sleep(10 * time.Millisecond) // let the spinners own the worker
	high = Go(rt, nil, 1, "high", func(c *Ctx) int {
		m.Lock(c)
		m.Unlock(c)
		return 42
	})
	// Wait until the high task has actually blocked on the Mutex before
	// releasing the holder, so the boost is in place at requeue time.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().MutexParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("high task never blocked on the mutex")
		}
		time.Sleep(time.Millisecond)
	}
	gate.Complete(0)
	return high, gate, stopSpin
}

// TestPriorityInheritanceAccelerates proves the re-leveling: with
// inheritance on, the blocked high-priority waiter pulls the holder to
// level 1 and everything completes; the Inherits counter records the
// event.
func TestPriorityInheritanceAccelerates(t *testing.T) {
	rt := testRuntime(t, Config{
		Workers: 1, Levels: 2, Prioritize: true,
	})
	high, _, stopSpin := inheritanceScenario(t, rt)
	v, err := Await(high, 10*time.Second)
	stopSpin.Store(true)
	if err != nil {
		t.Fatalf("high task failed: %v", err)
	}
	if v != 42 {
		t.Errorf("high task = %d, want 42", v)
	}
	if rt.Stats().Inherits == 0 {
		t.Error("Inherits counter should record the boost")
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestNoInheritanceStarves is the control: with inheritance disabled the
// identical scenario strands the holder behind the spinner and the high
// task stays blocked — the inversion the boost exists to remove.
func TestNoInheritanceStarves(t *testing.T) {
	rt := testRuntime(t, Config{
		Workers: 1, Levels: 2, Prioritize: true,
		DisableInheritance: true,
	})
	high, _, stopSpin := inheritanceScenario(t, rt)
	_, err := Await(high, 500*time.Millisecond)
	if err == nil {
		t.Error("high task completed despite the inversion; the control scenario is too weak")
	}
	stopSpin.Store(true) // release the worker; the chain now unwinds
	if _, err := Await(high, 10*time.Second); err != nil {
		t.Fatalf("high task never completed even after the spinner stopped: %v", err)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestMutexStressMultiLevel hammers one map-guarding Mutex and one Ref
// from tasks at every level with parking critical sections — the -race
// workout for the claim/boost machinery.
func TestMutexStressMultiLevel(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 4, Prioritize: true})
	m := NewMutex(rt, 3, "stress")
	table := map[int]int{}
	hits := NewRef[int64](rt, 3, 0)
	const tasks = 120
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		p := Priority(i % 4)
		key := i % 8
		futs = append(futs, Go(rt, nil, p, "stress", func(c *Ctx) int {
			for n := 0; n < 6; n++ {
				m.Lock(c)
				table[key]++
				if n%3 == 0 {
					IO(rt, p, 50*time.Microsecond, func() int { return 0 }).Touch(c)
				}
				m.Unlock(c)
				hits.Update(c, func(v int64) int64 { return v + 1 })
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, v := range table {
		total += v
	}
	if total != tasks*6 {
		t.Errorf("table total = %d, want %d", total, tasks*6)
	}
	if v := hits.Load(nil); v != tasks*6 {
		t.Errorf("ref total = %d, want %d", v, tasks*6)
	}
}
