package icilk

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRWMutexReadersShared proves read holds are concurrent: a second
// reader acquires while the first is parked inside its read section.
// With a plain Mutex the second RLock would block and the gate would
// never complete (the test would time out).
func TestRWMutexReadersShared(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	m := NewRWMutex(rt, 1, 0, "shared")
	gate := NewPromise[int](rt, 1)
	first := Go(rt, nil, 1, "reader-a", func(c *Ctx) int {
		m.RLock(c)
		v := gate.Future().Touch(c) // park while holding the read lock
		m.RUnlock(c)
		return v
	})
	second := Go(rt, nil, 1, "reader-b", func(c *Ctx) int {
		m.RLock(c)
		m.RUnlock(c)
		gate.Complete(7) // only reachable if RLock succeeded alongside reader-a
		return 1
	})
	if v, err := Await(second, 5*time.Second); err != nil || v != 1 {
		t.Fatalf("second reader: v=%d err=%v", v, err)
	}
	if v, err := Await(first, 5*time.Second); err != nil || v != 7 {
		t.Fatalf("first reader: v=%d err=%v", v, err)
	}
}

// TestRWMutexWriterExcludes drives writers that park mid-update and
// readers that double-read: any broken exclusion shows up as a torn
// counter or an inconsistent read snapshot.
func TestRWMutexWriterExcludes(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 3, Prioritize: true})
	m := NewRWMutex(rt, 2, 1, "excl")
	x := 0
	const writers, incs = 12, 8
	var futs []Future[int]
	for i := 0; i < writers; i++ {
		park := i%3 == 0
		futs = append(futs, Go(rt, nil, 1, "writer", func(c *Ctx) int {
			for n := 0; n < incs; n++ {
				m.Lock(c)
				v := x
				if park {
					IO(rt, 1, 50*time.Microsecond, func() int { return 0 }).Touch(c)
				}
				x = v + 1
				m.Unlock(c)
			}
			return 0
		}))
	}
	for i := 0; i < 12; i++ {
		futs = append(futs, Go(rt, nil, 2, "reader", func(c *Ctx) int {
			bad := 0
			for n := 0; n < 40; n++ {
				m.RLock(c)
				a := x
				busyFor(2 * time.Microsecond)
				b := x
				m.RUnlock(c)
				if a != b {
					bad++
				}
				c.Checkpoint()
			}
			return bad
		}))
	}
	for _, f := range futs {
		v, err := Await(f, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Errorf("reader saw %d inconsistent snapshots", v)
		}
	}
	if x != writers*incs {
		t.Errorf("counter = %d, want %d (lost updates)", x, writers*incs)
	}
}

// TestRWMutexWriterBlocksBehindReader pins a reader inside its section
// and checks the writer parks (RWWriteParks) until the reader leaves.
func TestRWMutexWriterBlocksBehindReader(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	m := NewRWMutex(rt, 1, 1, "wblock")
	gate := NewPromise[int](rt, 1)
	reading := make(chan struct{})
	reader := Go(rt, nil, 1, "reader", func(c *Ctx) int {
		m.RLock(c)
		close(reading)
		gate.Future().Touch(c)
		m.RUnlock(c)
		return 0
	})
	<-reading
	var order atomic.Int32
	writer := Go(rt, nil, 1, "writer", func(c *Ctx) int {
		m.Lock(c)
		v := order.Add(1)
		m.Unlock(c)
		return int(v)
	})
	// The writer must actually park on the held read lock before the
	// gate opens.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().RWWriteParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never parked behind the reader")
		}
		time.Sleep(time.Millisecond)
	}
	order.Add(10) // mark "gate not yet open" work done before writer ran
	gate.Complete(0)
	if v, err := Await(writer, 5*time.Second); err != nil || v != 11 {
		t.Fatalf("writer: v=%d err=%v (writer ran before the reader released)", v, err)
	}
	if _, err := Await(reader, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRWMutexDrainGrantsWriterOverReaders regression-tests the grant
// policy that keeps writers from starving under the proxy cache's
// configuration (read ceiling above write ceiling): with a writer AND a
// higher-priority reader both queued when the read era drains, the
// writer gets its one bounded section first. A priority-compare-only
// grant at the drain hands the lock to the reader wave instead — and,
// repeated under a continuous reader stream, never to the writer.
func TestRWMutexDrainGrantsWriterOverReaders(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true})
	m := NewRWMutex(rt, 1, 0, "drain")
	gate := NewPromise[int](rt, 1)
	reading := make(chan struct{})
	holder := Go(rt, nil, 1, "reader-a", func(c *Ctx) int {
		m.RLock(c)
		close(reading)
		gate.Future().Touch(c)
		m.RUnlock(c) // the drain: both the writer and reader-b are queued
		return 0
	})
	<-reading
	var order []string
	writer := Go(rt, nil, 0, "writer", func(c *Ctx) int {
		m.Lock(c)
		order = append(order, "writer") // ordered by the lock's grants
		m.Unlock(c)
		return 0
	})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().RWWriteParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never queued behind the read hold")
		}
		time.Sleep(time.Millisecond)
	}
	late := Go(rt, nil, 1, "reader-b", func(c *Ctx) int {
		m.RLock(c) // wait bit set: queues despite outranking the writer
		order = append(order, "reader")
		m.RUnlock(c)
		return 0
	})
	for rt.Stats().RWReadParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late reader never queued behind the pending writer")
		}
		time.Sleep(time.Millisecond)
	}
	gate.Complete(0)
	for _, f := range []Future[int]{holder, writer, late} {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 || order[0] != "writer" || order[1] != "reader" {
		t.Errorf("grant order = %v, want [writer reader]: the drain must give the queued writer its bounded section before the higher-priority reader wave", order)
	}
	// The granted writer was outranked by the still-queued reader, so the
	// grant must have boosted it to the reader's level (the section is
	// bounded only if it runs at the waiter's priority).
	if rt.Stats().Inherits == 0 {
		t.Error("drain grant of an outranked writer should record an inheritance boost")
	}
}

// TestRWMutexCeilings mirrors the Mutex ceiling units per mode: reading
// above the read ceiling and writing above the write ceiling are
// violations; reading at the read ceiling (above the write ceiling) is
// the read-mostly pattern the split exists for.
func TestRWMutexCeilings(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 3, Prioritize: true})
	m := NewRWMutex(rt, 1, 0, "ceil")

	ok := Go(rt, nil, 1, "read-at-ceiling", func(c *Ctx) int {
		m.RLock(c)
		m.RUnlock(c)
		return 3
	})
	if v, err := Await(ok, 5*time.Second); err != nil || v != 3 {
		t.Fatalf("read at ceiling: v=%d err=%v", v, err)
	}
	okW := Go(rt, nil, 0, "write-at-ceiling", func(c *Ctx) int {
		m.Lock(c)
		m.Unlock(c)
		return 4
	})
	if v, err := Await(okW, 5*time.Second); err != nil || v != 4 {
		t.Fatalf("write at ceiling: v=%d err=%v", v, err)
	}

	badRead := Go(rt, nil, 2, "read-above", func(c *Ctx) int {
		m.RLock(c)
		m.RUnlock(c)
		return 0
	})
	var inv *PriorityInversionError
	if _, err := Await(badRead, 5*time.Second); err == nil || !errors.As(err, &inv) {
		t.Fatalf("read above read ceiling: want PriorityInversionError, got %v", err)
	}
	if inv.Toucher != 2 || inv.Touched != 1 {
		t.Errorf("read violation details wrong: %+v", inv)
	}

	badWrite := Go(rt, nil, 1, "write-above", func(c *Ctx) int {
		m.Lock(c)
		m.Unlock(c)
		return 0
	})
	inv = nil
	if _, err := Await(badWrite, 5*time.Second); err == nil || !errors.As(err, &inv) {
		t.Fatalf("write above write ceiling: want PriorityInversionError, got %v", err)
	}
	if inv.Toucher != 1 || inv.Touched != 0 {
		t.Errorf("write violation details wrong: %+v", inv)
	}
	if rt.Stats().CeilingViolations < 2 {
		t.Error("CeilingViolations should count both per-mode violations")
	}
}

func TestNewRWMutexRejectsInvertedCeilings(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 2})
	defer func() {
		if recover() == nil {
			t.Error("NewRWMutex with read ceiling below write ceiling should panic")
		}
	}()
	NewRWMutex(rt, 0, 1, "inverted")
}

// TestRWMutexWriteInheritance is the RW twin of the Mutex inheritance
// test: one worker, two levels, a level-0 write holder parked on a gate
// while a level-0 spinner monopolizes the worker; a level-1 reader
// blocks on the write lock and must boost the holder to level 1 for the
// chain to unwind.
func TestRWMutexWriteInheritance(t *testing.T) {
	rt := testRuntime(t, Config{
		Workers: 1, Levels: 2, Prioritize: true,
	})
	m := NewRWMutex(rt, 1, 0, "inherit")
	gate := NewPromise[int](rt, 0)
	locked := make(chan struct{})
	Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(locked)
		gate.Future().Touch(c) // park while holding the write lock
		m.Unlock(c)
		return 0
	})
	select {
	case <-locked:
	case <-time.After(5 * time.Second):
		t.Fatal("holder never acquired the write lock")
	}
	var stopSpin atomic.Bool
	Go(rt, nil, 0, "spinner", func(c *Ctx) int {
		for !stopSpin.Load() {
			busyFor(100 * time.Microsecond)
			c.Yield()
		}
		return 0
	})
	time.Sleep(10 * time.Millisecond)
	high := Go(rt, nil, 1, "high-reader", func(c *Ctx) int {
		m.RLock(c)
		m.RUnlock(c)
		return 42
	})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().RWReadParks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reader never blocked on the write lock")
		}
		time.Sleep(time.Millisecond)
	}
	gate.Complete(0)
	v, err := Await(high, 10*time.Second)
	stopSpin.Store(true)
	if err != nil {
		t.Fatalf("high reader failed: %v", err)
	}
	if v != 42 {
		t.Errorf("high reader = %d, want 42", v)
	}
	if rt.Stats().Inherits == 0 {
		t.Error("Inherits should record the reader-into-writer boost")
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Error(err)
	}
}

// TestRWMutexStressMultiLevel hammers one map-guarding RWMutex from
// readers and writers at every admissible level, with parking write
// and read sections — the -race workout for the grant machinery.
func TestRWMutexStressMultiLevel(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 4, Prioritize: true})
	m := NewRWMutex(rt, 3, 2, "stress")
	table := map[int]int{}
	const writers, readers, rounds = 40, 60, 6
	var futs []Future[int]
	for i := 0; i < writers; i++ {
		p := Priority(i % 3) // ≤ write ceiling 2
		key := i % 8
		futs = append(futs, Go(rt, nil, p, "w", func(c *Ctx) int {
			for n := 0; n < rounds; n++ {
				m.Lock(c)
				table[key]++
				if n%3 == 0 {
					IO(rt, p, 50*time.Microsecond, func() int { return 0 }).Touch(c)
				}
				m.Unlock(c)
				c.Checkpoint()
			}
			return 0
		}))
	}
	for i := 0; i < readers; i++ {
		p := Priority(i % 4) // ≤ read ceiling 3
		park := i%5 == 0
		futs = append(futs, Go(rt, nil, p, "r", func(c *Ctx) int {
			sum := 0
			for n := 0; n < rounds; n++ {
				m.RLock(c)
				for _, v := range table {
					sum += v
				}
				if park {
					IO(rt, p, 20*time.Microsecond, func() int { return 0 }).Touch(c)
				}
				m.RUnlock(c)
				c.Checkpoint()
			}
			return sum
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
	if total != writers*rounds {
		t.Errorf("table total = %d, want %d", total, writers*rounds)
	}
	if rt.Stats().RWReadParks == 0 && rt.Stats().RWWriteParks == 0 {
		t.Log("stress run saw no RW parks (acceptable but unusual)")
	}
}

// TestMutexHandoffPriorityOrder checks the ordered waiter list: with
// three waiters parked at distinct priorities, Unlock hands the lock
// down in priority order.
func TestMutexHandoffPriorityOrder(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 3, Prioritize: true})
	m := NewMutex(rt, 2, "order")
	gate := NewPromise[int](rt, 0)
	locked := make(chan struct{})
	holder := Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(locked)
		gate.Future().Touch(c)
		m.Unlock(c)
		return 0
	})
	<-locked
	var order []Priority
	var futs []Future[int]
	for _, p := range []Priority{0, 2, 1} {
		p := p
		// Ensure each waiter has parked before spawning the next, so all
		// three are queued when the holder releases.
		want := rt.Stats().MutexParks + 1
		futs = append(futs, Go(rt, nil, p, "waiter", func(c *Ctx) int {
			m.Lock(c)
			order = append(order, p) // guarded by m itself
			m.Unlock(c)
			return 0
		}))
		deadline := time.Now().Add(5 * time.Second)
		for rt.Stats().MutexParks < want {
			if time.Now().After(deadline) {
				t.Fatalf("waiter at prio %d never parked", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
	gate.Complete(0)
	for _, f := range futs {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Await(holder, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Errorf("handoff order = %v, want [2 1 0]", order)
	}
}

// TestMutexFastPathUncontended churns an uncontended Mutex and a Ref
// from a single task: the slow path (and its park counter) must never
// be touched.
func TestMutexFastPathUncontended(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	m := NewMutex(rt, 0, "fast")
	r := NewRef[int](rt, 0, 0)
	fut := Go(rt, nil, 0, "churn", func(c *Ctx) int {
		for i := 0; i < 20000; i++ {
			m.Lock(c)
			m.Unlock(c)
			r.Update(c, func(v int) int { return v + 1 })
		}
		return r.Load(c)
	})
	if v, err := Await(fut, 10*time.Second); err != nil || v != 20000 {
		t.Fatalf("churn: v=%d err=%v", v, err)
	}
	if p := rt.Stats().MutexParks; p != 0 {
		t.Errorf("uncontended churn took the slow path %d times", p)
	}
}

// TestMutexFastPathChurnRace races uncontended-style churn (short
// sections, TryLock probes) against parking critical sections on the
// same Mutex — the -race workout for the CAS fast path handing over to
// the park/inherit slow path and back.
func TestMutexFastPathChurnRace(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 2, Prioritize: true})
	m := NewMutex(rt, 1, "churnrace")
	counter := 0
	var tries atomic.Int64
	const tasks, rounds = 24, 30
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		p := Priority(i % 2)
		kind := i % 3
		futs = append(futs, Go(rt, nil, p, "churn", func(c *Ctx) int {
			for n := 0; n < rounds; n++ {
				switch kind {
				case 0: // fast churn
					m.Lock(c)
					counter++
					m.Unlock(c)
				case 1: // parking critical section
					m.Lock(c)
					v := counter
					IO(rt, p, 20*time.Microsecond, func() int { return 0 }).Touch(c)
					counter = v + 1
					m.Unlock(c)
				default: // TryLock probe, fall back to Lock
					if m.TryLock(c) {
						counter++
						m.Unlock(c)
					} else {
						tries.Add(1)
						m.Lock(c)
						counter++
						m.Unlock(c)
					}
				}
				c.Checkpoint()
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if counter != tasks*rounds {
		t.Errorf("counter = %d, want %d (lost updates across fast/slow paths)", counter, tasks*rounds)
	}
}

// TestMutexMidWaitBoostReorders is the reposition regression test: a
// waiter already enqueued on one Mutex is boosted (through a second
// lock it holds) while parked, and the grant must respect its raised
// priority — previously the waiter list kept the stale insertion-time
// position, so a boost mid-wait could not overtake a higher-priority
// waiter queued before it.
func TestMutexMidWaitBoostReorders(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 3, Prioritize: true})
	m := NewMutex(rt, 1, "contended")
	m2 := NewMutex(rt, 2, "boost-carrier")
	gate := NewPromise[int](rt, 0)
	locked := make(chan struct{})
	holder := Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(locked)
		gate.Future().Touch(c)
		m.Unlock(c)
		return 0
	})
	<-locked

	var order []string
	aHolds := make(chan struct{})
	parksAtA := rt.Stats().MutexParks + 1
	a := Go(rt, nil, 0, "waiter-a", func(c *Ctx) int {
		m2.Lock(c) // uncontended: the lock the booster will arrive through
		close(aHolds)
		m.Lock(c) // parks at waitPrio 0
		order = append(order, "a")
		m.Unlock(c)
		m2.Unlock(c)
		return 0
	})
	<-aHolds
	waitParks := func(want int64, who string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.Stats().MutexParks < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s never parked", who)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitParks(parksAtA, "waiter-a")

	parksAtB := rt.Stats().MutexParks + 1
	b := Go(rt, nil, 1, "waiter-b", func(c *Ctx) int {
		m.Lock(c) // parks at waitPrio 1, ahead of a
		order = append(order, "b")
		m.Unlock(c)
		return 0
	})
	waitParks(parksAtB, "waiter-b")

	// The booster blocks on m2, boosting a to level 2 while a is parked
	// on m — the mid-wait boost that must re-sort a ahead of b.
	parksAtBoost := rt.Stats().MutexParks + 1
	booster := Go(rt, nil, 2, "booster", func(c *Ctx) int {
		m2.Lock(c)
		m2.Unlock(c)
		return 0
	})
	waitParks(parksAtBoost, "booster")
	if rt.Stats().Inherits == 0 {
		t.Fatal("booster should have boosted waiter-a through m2")
	}

	gate.Complete(0)
	for _, f := range []Future[int]{holder, a, b, booster} {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("grant order = %v, want [a b]: the mid-wait boost must reposition waiter-a ahead of waiter-b", order)
	}
}

// TestRWMutexMidWaitBoostReorders is the RW twin: two write waiters
// queued behind a write holder, the lower-priority one boosted mid-wait
// through a Mutex it holds; the write release must grant the boosted
// waiter first.
func TestRWMutexMidWaitBoostReorders(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 3, Prioritize: true})
	m := NewRWMutex(rt, 1, 1, "contended-rw")
	m2 := NewMutex(rt, 2, "boost-carrier")
	gate := NewPromise[int](rt, 0)
	locked := make(chan struct{})
	holder := Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		close(locked)
		gate.Future().Touch(c)
		m.Unlock(c)
		return 0
	})
	<-locked

	var order []string
	aHolds := make(chan struct{})
	wparksAtA := rt.Stats().RWWriteParks + 1
	a := Go(rt, nil, 0, "writer-a", func(c *Ctx) int {
		m2.Lock(c)
		close(aHolds)
		m.Lock(c) // write-waits at waitPrio 0
		order = append(order, "a")
		m.Unlock(c)
		m2.Unlock(c)
		return 0
	})
	<-aHolds
	waitWParks := func(want int64, who string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.Stats().RWWriteParks < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s never parked", who)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitWParks(wparksAtA, "writer-a")

	wparksAtB := rt.Stats().RWWriteParks + 1
	b := Go(rt, nil, 1, "writer-b", func(c *Ctx) int {
		m.Lock(c) // write-waits at waitPrio 1, ahead of a
		order = append(order, "b")
		m.Unlock(c)
		return 0
	})
	waitWParks(wparksAtB, "writer-b")

	mparks := rt.Stats().MutexParks + 1
	booster := Go(rt, nil, 2, "booster", func(c *Ctx) int {
		m2.Lock(c)
		m2.Unlock(c)
		return 0
	})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().MutexParks < mparks {
		if time.Now().After(deadline) {
			t.Fatal("booster never parked on m2")
		}
		time.Sleep(time.Millisecond)
	}

	gate.Complete(0)
	for _, f := range []Future[int]{holder, a, b, booster} {
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("grant order = %v, want [a b]: the mid-wait boost must reposition writer-a ahead of writer-b", order)
	}
}
