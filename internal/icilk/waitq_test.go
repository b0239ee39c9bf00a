package icilk

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHandoffRetractsWaitEdge pins the hand-off invariant: a task is
// never the holder of the lock its waitingOn names. On one worker the
// holder H keeps the only slot across its Unlock, so the waiters it just
// granted cannot have resumed: whatever their waitingOn says at that
// point is what the grant left there. The gate promise orders
// the test by events — the last waiter completes it just before it
// blocks, and H cannot resume until that waiter has parked and released
// the slot.
func TestHandoffRetractsWaitEdge(t *testing.T) {
	type lockOps struct {
		lock, unlock, wait, unwait func(*Ctx)
		holder                     func() *task
	}
	cases := []struct {
		name       string
		waiters    int
		wantHolder bool // the grant publishes the (single) waiter as holder
		ops        func(rt *Runtime) lockOps
	}{
		{"mutex", 1, true, func(rt *Runtime) lockOps {
			m := NewMutex(rt, 0, "m")
			return lockOps{m.Lock, m.Unlock, m.Lock, m.Unlock, m.holderTask}
		}},
		{"rwmutex-writer", 1, true, func(rt *Runtime) lockOps {
			m := NewRWMutex(rt, 0, 0, "rw")
			return lockOps{m.Lock, m.Unlock, m.Lock, m.Unlock, m.holderTask}
		}},
		{"rwmutex-reader-wave", 3, false, func(rt *Runtime) lockOps {
			m := NewRWMutex(rt, 0, 0, "rw")
			return lockOps{m.Lock, m.Unlock, m.RLock, m.RUnlock, m.holderTask}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(t, Config{Workers: 1, Levels: 1})
			ops := tc.ops(rt)
			gate := NewPromise[int](rt, 0)
			waiting := make([]atomic.Pointer[task], tc.waiters)
			var arrived atomic.Int32
			fut := Go(rt, nil, 0, "H", func(c *Ctx) int {
				ops.lock(c)
				var ws []Future[int]
				for i := range waiting {
					ws = append(ws, Go(rt, c, 0, "W", func(c *Ctx) int {
						waiting[i].Store(c.t)
						if int(arrived.Add(1)) == tc.waiters {
							gate.Complete(0)
						}
						ops.wait(c)
						ops.unwait(c)
						return 0
					}))
				}
				gate.Future().Touch(c)
				for i := range waiting {
					if w := waiting[i].Load(); w.waitingOn.Load() == nil {
						t.Errorf("waiter %d is not queued before the release", i)
					}
				}
				ops.unlock(c)
				if h := ops.holder(); tc.wantHolder && h != waiting[0].Load() {
					t.Errorf("holder after hand-off = %v, want the waiter", h)
				}
				for i := range waiting {
					w := waiting[i].Load()
					if w.waitingOn.Load() != nil {
						t.Errorf("granted waiter %d still publishes a blocked-on edge", i)
					}
				}
				for _, w := range ws {
					w.Touch(c)
				}
				return 0
			})
			if _, err := Await(fut, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// heldBy builds a Mutex that names holder as its owner, as the cycle
// walk sees it.
func heldBy(rt *Runtime, name string, holder *task) *waitq {
	m := NewMutex(rt, 0, name)
	m.owner.Store(holder)
	return &m.waitq
}

// TestDeadlockWalkRejectsSelfLoop: a task that is holder and waiter of
// one lock is a grant in progress; the walk must end there, not spin on
// it or continue along whatever edge the task publishes next.
func TestDeadlockWalkRejectsSelfLoop(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	self, a := &task{name: "t"}, &task{name: "a"}
	l0 := heldBy(rt, "l0", a)
	a.waitingOn.Store(l0)
	if cyc := checkDeadlock(self, l0, a); cyc != nil {
		t.Errorf("self-loop reported as a cycle: %v", cyc)
	}
}

// TestDeadlockWalkNeedsAStablePath builds t → l0 (a) → l1 (b) → l2 (t).
// Left alone it is a cycle and is reported with every lock on it; when
// b's edge moves to another lock t holds between the two walks, both
// walks reach t but over different edges, and nothing is reported.
func TestDeadlockWalkNeedsAStablePath(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	self, a, b := &task{name: "t"}, &task{name: "a"}, &task{name: "b"}
	l0, l1 := heldBy(rt, "l0", a), heldBy(rt, "l1", b)
	l2, l3 := heldBy(rt, "l2", self), heldBy(rt, "l3", self)
	self.waitingOn.Store(l0)
	a.waitingOn.Store(l1)
	b.waitingOn.Store(l2)

	cyc := checkDeadlock(self, l0, a)
	if cyc == nil {
		t.Fatal("stable three-lock cycle not reported")
	}
	for _, want := range []string{`mutex "l0" held by "a"`, `mutex "l1" held by "b"`, `mutex "l2" held by "t"`} {
		if !strings.Contains(cyc.Cycle, want) {
			t.Errorf("cycle %q does not mention %s", cyc.Cycle, want)
		}
	}

	first := cyclePath(self, a)
	b.waitingOn.Store(l3)
	if second := cyclePath(self, a); len(second) != len(first) {
		t.Fatalf("second walk should still reach t: %v", second)
	}
	if cyc := confirmCycle(self, l0, a, first); cyc != nil {
		t.Errorf("path whose second edge changed between walks reported: %v", cyc)
	}
}

// TestPanickingHolderReleasesLocks: a task dies holding a Mutex, a
// fast-path read hold on one RWMutex and a read hold on a second that it
// was granted after parking behind a writer, with a waiter queued behind
// each hold. Every waiter must acquire, the panic must surface on the
// dead task's future, and the runtime must drain. One worker and the
// gates order it: the holder parks on rw2 before the writer there
// releases, and every waiter is parked before the holder resumes and
// panics.
func TestPanickingHolderReleasesLocks(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	m := NewMutex(rt, 0, "m")
	rw := NewRWMutex(rt, 0, 0, "rw")
	rw2 := NewRWMutex(rt, 0, 0, "rw2")
	gate := NewPromise[int](rt, 0)
	wrHolds, wrRelease := NewPromise[int](rt, 0), NewPromise[int](rt, 0)
	var arrived atomic.Int32
	arrive := func() {
		if arrived.Add(1) == 3 {
			gate.Complete(0)
		}
	}
	var holder *task
	var wr, w1, w2, w3 Future[int]
	dead := Go(rt, nil, 0, "dies", func(c *Ctx) int {
		holder = c.t
		m.Lock(c)
		rw.RLock(c)
		if len(c.t.rheld) != 1 {
			t.Error("fast-path read hold not recorded on its task")
		}
		wr = Go(rt, c, 0, "wr", func(c *Ctx) int {
			rw2.Lock(c)
			wrHolds.Complete(0)
			wrRelease.Future().Touch(c)
			rw2.Unlock(c)
			return 4
		})
		wrHolds.Future().Touch(c)
		// wr cannot run until this task parks: the RLock below queues
		// behind its write hold and is granted by its Unlock.
		wrRelease.Complete(0)
		rw2.RLock(c)
		if len(c.t.rheld) != 2 || rt.Stats().RWReadParks != 1 {
			t.Errorf("read hold on rw2 not granted after a park: rheld %d, %+v", len(c.t.rheld), rt.Stats())
		}
		w1 = Go(rt, c, 0, "w1", func(c *Ctx) int {
			arrive()
			m.Lock(c)
			m.Unlock(c)
			return 1
		})
		w2 = Go(rt, c, 0, "w2", func(c *Ctx) int {
			arrive()
			rw.Lock(c)
			rw.Unlock(c)
			return 2
		})
		w3 = Go(rt, c, 0, "w3", func(c *Ctx) int {
			arrive()
			rw2.Lock(c)
			rw2.Unlock(c)
			return 3
		})
		gate.Future().Touch(c)
		if s := rt.Stats(); s.MutexParks != 1 || s.RWWriteParks != 2 {
			t.Errorf("waiters not parked before the panic: %+v", s)
		}
		panic("boom")
	})
	if _, err := Await(dead, 10*time.Second); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Await on the panicked task = %v, want its panic", err)
	}
	for i, f := range []Future[int]{w1, w2, w3, wr} {
		if v, err := Await(f, 10*time.Second); err != nil || v != i+1 {
			t.Errorf("waiter %d: v=%d err=%v", i+1, v, err)
		}
	}
	if err := rt.WaitIdle(10 * time.Second); err != nil {
		t.Error(err)
	}
	if len(holder.rheld) != 0 {
		t.Errorf("dead task still records %d read holds", len(holder.rheld))
	}
	if m.state.Load() != 0 || rw.state.Load() != 0 || rw2.state.Load() != 0 {
		t.Errorf("locks not free at the end: mutex %#x rw %#x rw2 %#x",
			m.state.Load(), rw.state.Load(), rw2.state.Load())
	}
}
