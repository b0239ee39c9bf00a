package icilk

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testRuntime starts a runtime and registers cleanup, which fails the
// test if the lock-order recorder (on under Config.Debug) saw any
// violation. Tests that expect violations use New directly.
func testRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(cfg)
	t.Cleanup(func() {
		if v := rt.LockOrderViolations(); len(v) != 0 {
			t.Errorf("lock-order violations recorded:\n  %s", strings.Join(v, "\n  "))
		}
		rt.Shutdown()
	})
	return rt
}

func TestSpawnTouchValue(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	fut := Go(rt, nil, 1, "root", func(c *Ctx) int {
		child := Go(rt, c, 1, "child", func(*Ctx) int { return 21 })
		return child.Touch(c) * 2
	})
	v, err := Await(fut, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("value = %d, want 42", v)
	}
	if err := rt.WaitIdle(time.Second); err != nil {
		t.Error(err)
	}
}

// fib computes Fibonacci with futures, the classic fork-join shape.
func fib(rt *Runtime, c *Ctx, p Priority, n int) int {
	if n < 2 {
		return n
	}
	if n < 10 { // sequential cutoff
		return fib(rt, c, p, n-1) + fib(rt, c, p, n-2)
	}
	left := Go(rt, c, p, "fib", func(c *Ctx) int { return fib(rt, c, p, n-1) })
	right := fib(rt, c, p, n-2)
	return left.Touch(c) + right
}

func TestParallelFib(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 1})
	fut := Go(rt, nil, 0, "fib", func(c *Ctx) int { return fib(rt, c, 0, 20) })
	v, err := Await(fut, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6765 {
		t.Errorf("fib(20) = %d, want 6765", v)
	}
}

func TestParallelFibBaseline(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 3, Prioritize: false})
	fut := Go(rt, nil, 2, "fib", func(c *Ctx) int { return fib(rt, c, 2, 18) })
	v, err := Await(fut, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2584 {
		t.Errorf("fib(18) = %d, want 2584", v)
	}
}

func TestLatencyHiding(t *testing.T) {
	// 8 tasks each touch a 30ms IO future on 2 workers. With latency
	// hiding the wall time is ~30ms; if touches held their workers it
	// would be ≥ 4×30ms.
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	start := time.Now()
	var futs []Future[bool]
	for i := 0; i < 8; i++ {
		futs = append(futs, Go(rt, nil, 0, "waiter", func(c *Ctx) bool {
			io := IO(rt, 0, 30*time.Millisecond, func() int { return 1 })
			return io.Touch(c) == 1
		}))
	}
	for _, f := range futs {
		v, err := Await(f, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !v {
			t.Error("IO future returned wrong value")
		}
	}
	elapsed := time.Since(start)
	if elapsed > 90*time.Millisecond {
		t.Errorf("latency hiding failed: 8 overlapping 30ms waits took %v", elapsed)
	}
}

func TestPriorityInversionDetected(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	fut := Go(rt, nil, 1, "high", func(c *Ctx) int {
		low := Go(rt, c, 0, "low", func(c *Ctx) int {
			time.Sleep(time.Millisecond)
			return 1
		})
		return low.Touch(c) // high touches low: inversion
	})
	_, err := Await(fut, 5*time.Second)
	if err == nil {
		t.Fatal("expected a priority-inversion error")
	}
	var inv *PriorityInversionError
	if !errors.As(err, &inv) {
		t.Fatalf("error should wrap PriorityInversionError: %v", err)
	}
	if inv.Toucher != 1 || inv.Touched != 0 {
		t.Errorf("inversion details wrong: %+v", inv)
	}
}

func TestEqualPriorityTouchAllowed(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	fut := Go(rt, nil, 1, "a", func(c *Ctx) int {
		peer := Go(rt, c, 1, "b", func(*Ctx) int { return 9 })
		return peer.Touch(c)
	})
	if v, err := Await(fut, 5*time.Second); err != nil || v != 9 {
		t.Errorf("equal-priority touch: v=%d err=%v", v, err)
	}
}

func TestLowTouchesHighAllowed(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	fut := Go(rt, nil, 0, "low", func(c *Ctx) int {
		hi := Go(rt, c, 1, "high", func(*Ctx) int { return 11 })
		return hi.Touch(c)
	})
	if v, err := Await(fut, 5*time.Second); err != nil || v != 11 {
		t.Errorf("low-touches-high: v=%d err=%v", v, err)
	}
}

func TestYieldAndCheckpoint(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	var order []int
	fut := Go(rt, nil, 0, "a", func(c *Ctx) int {
		other := Go(rt, c, 0, "b", func(c *Ctx) int {
			order = append(order, 2)
			return 0
		})
		order = append(order, 1)
		c.Yield() // let b run on the single worker
		v := other.Touch(c)
		order = append(order, 3)
		c.Checkpoint() // nothing above level 0: must be a no-op
		return v
	})
	if _, err := Await(fut, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestHandleExchange(t *testing.T) {
	// The email-app pattern: store an untyped handle in shared state,
	// another task retrieves and touches it.
	rt := testRuntime(t, Config{Workers: 2, Levels: 1})
	var slot atomic.Pointer[Handle]
	prod := Go(rt, nil, 0, "producer", func(c *Ctx) int {
		inner := Go(rt, c, 0, "inner", func(*Ctx) int { return 123 })
		slot.Store(inner.Untyped())
		return 0
	})
	if _, err := Await(prod, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cons := Go(rt, nil, 0, "consumer", func(c *Ctx) int {
		h := slot.Load()
		if h == nil {
			return -1
		}
		return h.Touch(c).(int)
	})
	v, err := Await(cons, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v != 123 {
		t.Errorf("value = %d, want 123", v)
	}
}

// TestTryTouchAndDone polls a gated future without blocking (Done) before
// and after it completes, then touches it for the value.
func TestTryTouchAndDone(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	gate := make(chan struct{})
	fut := Go(rt, nil, 0, "gated", func(*Ctx) int {
		<-gate
		return 7
	})
	if fut.Done() {
		t.Error("Done should be false before completion")
	}
	close(gate)
	if _, err := Await(fut, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !fut.Done() {
		t.Fatal("Done should be true after completion")
	}
	v, err := Await(Go(rt, nil, 0, "toucher", func(c *Ctx) int { return fut.Touch(c) }), 5*time.Second)
	if err != nil || v != 7 {
		t.Errorf("Touch after completion = %d, %v", v, err)
	}
}

func TestMasterAdaptsToHighPriorityBurst(t *testing.T) {
	// Saturate the low level, then burst the high level: every worker
	// takes the burst at its next task boundary, ahead of the low level.
	rt := testRuntime(t, Config{
		Workers: 4, Levels: 2, Prioritize: true,
	})
	stopLow := make(chan struct{})
	for i := 0; i < 8; i++ {
		Go(rt, nil, 0, "lowspin", func(c *Ctx) int {
			for {
				select {
				case <-stopLow:
					return 0
				default:
					busyFor(200 * time.Microsecond)
					c.Yield()
				}
			}
		})
	}
	time.Sleep(20 * time.Millisecond) // let low claim the machine
	var highDone atomic.Int64
	for i := 0; i < 16; i++ {
		Go(rt, nil, 1, "highburst", func(c *Ctx) int {
			busyFor(500 * time.Microsecond)
			highDone.Add(1)
			return 0
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for highDone.Load() < 16 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if highDone.Load() < 16 {
		t.Errorf("high burst starved: only %d/16 completed", highDone.Load())
	}
	close(stopLow)
	if err := rt.WaitIdle(5 * time.Second); err != nil {
		t.Error(err)
	}
}

// busyFor spins for roughly d of CPU work.
func busyFor(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		for i := 0; i < 200; i++ {
			x = x*31 + i
		}
	}
	_ = x
}

func TestShutdownIdempotent(t *testing.T) {
	rt := New(Config{Workers: 1, Levels: 1})
	rt.Shutdown()
	rt.Shutdown()
}

func TestWaitIdleTimeout(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	gate := make(chan struct{})
	defer close(gate)
	Go(rt, nil, 0, "stuck", func(*Ctx) int { <-gate; return 0 })
	if err := rt.WaitIdle(10 * time.Millisecond); err == nil {
		t.Error("WaitIdle should time out while a task is stuck")
	}
}

func TestManyTasksStress(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 3, Prioritize: true})
	var sum atomic.Int64
	var futs []Future[int]
	for i := 0; i < 300; i++ {
		p := Priority(i % 3)
		i := i
		futs = append(futs, Go(rt, nil, p, "stress", func(c *Ctx) int {
			inner := Go(rt, c, p, "inner", func(*Ctx) int { return i })
			v := inner.Touch(c)
			sum.Add(int64(v))
			return v
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(300 * 299 / 2)
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}
