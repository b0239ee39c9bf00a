package icilk

import (
	"container/heap"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerClockRuntime is testRuntime with the clock's fallback timer
// disarmed before anything is armed, so only workers fire clock
// entries: at a task boundary, before parking, or at Checkpoint.
func workerClockRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := testRuntime(t, cfg)
	rt.clock.mu.Lock()
	rt.clock.noFallback = true
	rt.clock.mu.Unlock()
	return rt
}

// expireClock makes every armed entry due now.
func expireClock(rt *Runtime) {
	c := &rt.clock
	c.mu.Lock()
	for _, e := range c.heap {
		e.when = 0
	}
	if len(c.heap) > 0 {
		c.head.Store(0)
	}
	c.mu.Unlock()
}

func clockLen(rt *Runtime) int {
	rt.clock.mu.Lock()
	defer rt.clock.mu.Unlock()
	return len(rt.clock.heap)
}

// TestClockHeapOrder pops a heap built from random deadlines, with some
// entries cancelled by index, and checks the order, the index
// bookkeeping and head.
func TestClockHeapOrder(t *testing.T) {
	var c clock
	c.head.Store(never)
	rng := rand.New(rand.NewSource(1))
	var live, cancelled []*clockEntry
	for i := 0; i < 500; i++ {
		e := &clockEntry{when: rng.Int63n(1000)}
		heap.Push(&c.heap, e)
		if rng.Intn(4) == 0 {
			cancelled = append(cancelled, e)
		} else {
			live = append(live, e)
		}
	}
	for _, e := range cancelled {
		c.remove(e.idx)
		if e.idx != -1 {
			t.Fatalf("cancelled entry keeps index %d", e.idx)
		}
	}
	for i, e := range c.heap {
		if e.idx != i {
			t.Fatalf("heap[%d].idx = %d", i, e.idx)
		}
	}
	last := int64(-1)
	for n := 0; len(c.heap) > 0; n++ {
		if h := c.head.Load(); h != c.heap[0].when {
			t.Fatalf("head = %d, heap[0].when = %d", h, c.heap[0].when)
		}
		e := c.remove(0)
		if e.when < last {
			t.Fatalf("pop %d: when %d after %d", n, e.when, last)
		}
		last = e.when
	}
	if c.head.Load() != never {
		t.Fatalf("empty heap's head = %d, want never", c.head.Load())
	}
	for _, e := range live {
		if e.idx != -1 {
			t.Fatalf("popped entry keeps index %d", e.idx)
		}
	}
}

// An entry that is already due waits for the next task boundary: the
// only worker is busy and the fallback is disarmed, so nothing fires
// it while the arming task runs. The arming task leaves a successor on
// the worker's deque, so the worker goes straight from one task to the
// next without parking, and the successor must find the IO resolved.
func TestClockDueEntryFiresAtTaskBoundary(t *testing.T) {
	rt := workerClockRuntime(t, Config{Workers: 1, Levels: 1})
	arm := Go(rt, nil, 0, "arm", func(c *Ctx) Future[bool] {
		io := IO(rt, 0, 0, func() int { return 42 })
		for start := time.Now(); time.Since(start) < time.Millisecond; {
			// Hold the only worker past the due time.
		}
		if io.Done() {
			t.Error("a due IO fired before its worker reached a boundary")
		}
		return Go(rt, c, 0, "next", func(*Ctx) bool { return io.Done() })
	})
	next, err := Await(arm, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := Await(next, 10*time.Second); err != nil || !done {
		t.Fatalf("the next task saw the IO done = %v (err %v), want true", done, err)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// A due entry fires at a Checkpoint inside a long level-0 task, and the
// level-1 waiter it completes runs before that task resumes: the only
// reason Checkpoint can yield is the woken waiter.
func TestClockCheckpointFiresDueEntry(t *testing.T) {
	rt := workerClockRuntime(t, Config{Workers: 1, Levels: 2, Prioritize: true})
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	io := IO(rt, 1, time.Hour, func() int { return 1 })
	waiter := Go(rt, nil, 1, "waiter", func(c *Ctx) int {
		v := io.Touch(c)
		note("waiter")
		return v
	})
	for deadline := time.Now().Add(10 * time.Second); ; {
		io.f.mu.Lock()
		parked := len(io.f.waiters) == 1
		io.f.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiter never parked on the IO")
		}
		time.Sleep(100 * time.Microsecond)
	}
	started, proceed := make(chan struct{}), make(chan struct{})
	long := Go(rt, nil, 0, "long", func(c *Ctx) int {
		close(started)
		<-proceed
		c.Checkpoint()
		note("long")
		return 0
	})
	<-started
	expireClock(rt)
	close(proceed)
	if _, err := Await(long, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := Await(waiter, 10*time.Second); err != nil || v != 1 {
		t.Fatalf("waiter = (%d, %v), want (1, nil)", v, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "waiter" {
		t.Fatalf("order = %v, want the level-1 waiter before the long task resumes", order)
	}
	if n := rt.Stats().PreemptYields; n < 1 {
		t.Errorf("PreemptYields = %d, want >= 1", n)
	}
}

// A cancelled AfterFunc never fires, leaves the heap empty and retires
// its outstanding count. Arm and cancel run inside one task on the only
// worker, so no boundary falls between them even though the entry is
// due at once.
func TestClockCancelledAfterFuncNeverFires(t *testing.T) {
	rt := workerClockRuntime(t, Config{Workers: 1, Levels: 1})
	var fired atomic.Bool
	if _, err := Await(Go(rt, nil, 0, "arm+cancel", func(c *Ctx) int {
		cancel := rt.AfterFunc(0, func() { fired.Store(true) })
		cancel()
		c.Checkpoint()
		return 0
	}), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := Await(Go(rt, nil, 0, "boundary", func(c *Ctx) int {
			c.Checkpoint()
			return 0
		}), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fired.Load() {
		t.Fatal("a cancelled AfterFunc fired")
	}
	if n := clockLen(rt); n != 0 {
		t.Fatalf("%d entries left after cancel, want 0", n)
	}
	if h := rt.clock.head.Load(); h != never {
		t.Fatalf("head = %d after cancel, want never", h)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// An AfterFunc callback runs at the first task boundary after it falls
// due, on the worker and outside any task; until then the entry counts
// as outstanding, so WaitIdle waits for it.
func TestAfterFuncFiresAtBoundary(t *testing.T) {
	rt := workerClockRuntime(t, Config{Workers: 1, Levels: 1})
	var fired atomic.Bool
	arm := Go(rt, nil, 0, "arm", func(c *Ctx) Future[bool] {
		rt.AfterFunc(0, func() { fired.Store(true) })
		if n := rt.Outstanding(); n != 2 {
			t.Errorf("outstanding = %d with the arming task running and its entry armed, want 2", n)
		}
		for start := time.Now(); time.Since(start) < time.Millisecond; {
			// Hold the only worker past the due time.
		}
		if fired.Load() {
			t.Error("a due AfterFunc fired before its worker reached a boundary")
		}
		return Go(rt, c, 0, "next", func(*Ctx) bool { return fired.Load() })
	})
	next, err := Await(arm, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := Await(next, 10*time.Second); err != nil || !done {
		t.Fatalf("the next task saw the callback run = %v (err %v), want true", done, err)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := rt.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after the callback ran, want 0", n)
	}
}

// A cancel after the callback has run, and a second cancel, do
// nothing: the callback ran once and the outstanding count was retired
// once. A cancel that empties the clock also disarms its fallback
// timer, so a runtime with nothing armed holds no timer.
func TestAfterFuncCancelAfterFiringIsHarmless(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	var fired atomic.Int64
	cancel := rt.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatalf("the entry never fired: %v", err)
	}
	cancel()
	cancel()
	if n := fired.Load(); n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
	if n := rt.Outstanding(); n != 0 {
		t.Errorf("outstanding = %d after a late cancel, want 0", n)
	}
	if n := clockLen(rt); n != 0 {
		t.Errorf("%d entries left, want 0", n)
	}
	rt.AfterFunc(time.Hour, func() { t.Error("a cancelled hour-long entry fired") })()
	rt.clock.mu.Lock()
	at := rt.clock.fallbackAt
	rt.clock.mu.Unlock()
	if at != never {
		t.Errorf("fallback timer armed for %d with nothing armed, want never", at)
	}
}

// A panicking IO result fails its own future only: the task whose
// Checkpoint fired it carries on, and an IO fired beside it completes.
func TestClockPanickingIOFailsOnlyItsFuture(t *testing.T) {
	rt := workerClockRuntime(t, Config{Workers: 1, Levels: 1})
	errBoom := errors.New("boom")
	type pair struct{ bad, good Future[int] }
	f := Go(rt, nil, 0, "boundary", func(c *Ctx) pair {
		p := pair{
			bad:  IO(rt, 0, 0, func() int { panic(errBoom) }),
			good: IO(rt, 0, 0, func() int { return 7 }),
		}
		c.Checkpoint()
		if !p.good.Done() {
			t.Error("Checkpoint did not fire a due IO")
		}
		return p
	})
	p, err := Await(f, 10*time.Second)
	if err != nil {
		t.Fatalf("the task whose Checkpoint fired a panicking IO failed: %v", err)
	}
	if _, err := Await(p.bad, 10*time.Second); !errors.Is(err, errBoom) {
		t.Fatalf("panicking IO resolved with %v, want an error wrapping %v", err, errBoom)
	}
	if v, err := Await(p.good, 10*time.Second); err != nil || v != 7 {
		t.Fatalf("IO beside the panicking one = (%d, %v), want (7, nil)", v, err)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// An IO or AfterFunc armed before Shutdown still fires: with no
// workers left, the fallback timer fires it.
func TestClockIOArmedBeforeShutdownResolves(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 1})
	io := IO(rt, 0, 2*time.Millisecond, func() int { return 5 })
	fired := make(chan struct{})
	rt.AfterFunc(2*time.Millisecond, func() { close(fired) })
	rt.Shutdown()
	if v, err := Await(io, 10*time.Second); err != nil || v != 5 {
		t.Fatalf("IO after Shutdown = (%d, %v), want (5, nil)", v, err)
	}
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("an AfterFunc armed before Shutdown never fired")
	}
}

// The SetBoundaryPoll hook runs at Checkpoint and at the task boundary
// that follows a task, on the worker itself, and nowhere once removed.
// One worker, so every call comes from the task's own goroutine or the
// boundary between its tasks.
func TestBoundaryPollRunsAtBoundaries(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	var calls atomic.Int64
	rt.SetBoundaryPoll(func() { calls.Add(1) })
	var inCheckpoint int64
	first := Go(rt, nil, 0, "first", func(c *Ctx) int64 {
		before := calls.Load()
		c.Checkpoint()
		after := calls.Load()
		inCheckpoint = after - before
		return after
	})
	last, err := Await(first, 10*time.Second)
	if err != nil || inCheckpoint != 1 {
		t.Fatalf("Checkpoint ran the hook %d times (err %v), want 1", inCheckpoint, err)
	}
	second := Go(rt, nil, 0, "second", func(*Ctx) int64 { return calls.Load() })
	if seen, err := Await(second, 10*time.Second); err != nil || seen <= last {
		t.Fatalf("the next task saw %d hook calls (err %v), want more than the %d the first task last saw", seen, err, last)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rt.SetBoundaryPoll(nil)
	settled := calls.Load()
	third := Go(rt, nil, 0, "third", func(c *Ctx) int { c.Checkpoint(); return 0 })
	if _, err := Await(third, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != settled {
		t.Errorf("a removed hook ran %d more times", n-settled)
	}
}
