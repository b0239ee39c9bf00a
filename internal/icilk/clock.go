package icilk

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// never is the head deadline of a clock with nothing armed.
const never = math.MaxInt64

// clock is the runtime's one source of deadlines. IO completions and
// FailAfter expiries are entries of a min-heap ordered by due time, and
// the workers fire due entries themselves: after every task in
// worker.run, in next() before parking, and at the top of Checkpoint. A
// 100 µs IO therefore completes within one task's length of its due
// time, instead of on the Go timer's ~1 ms tick, which is how a Go
// process whose spare Ps sleep in epoll_wait serves a short timer.
//
// head mirrors the earliest deadline, so a worker's check costs one
// atomic load when nothing is armed. One fallback Go timer, armed at the
// head, fires due entries when no worker passes a boundary: every worker
// parked, or the runtime shut down. It is re-armed lazily — an arm moves
// it earlier, and a firing re-arms it at the new head — so a runtime
// whose workers fire everything costs about one Go timer wake-up per
// tick, not one per entry.
type clock struct {
	epoch time.Time    // now() is monotonic nanoseconds since epoch
	head  atomic.Int64 // heap[0].when, or never

	mu         sync.Mutex
	heap       entryHeap
	fallback   *time.Timer // created by the first arm
	fallbackAt int64       // when fallback is armed for, or never
	noFallback bool        // tests: only workers fire entries
}

// clockEntry is one armed deadline: when it is due it resolves f, with
// val()'s result for an IO and with err for a FailAfter. Whoever pops it
// from the heap fires it, so it fires at most once.
type clockEntry struct {
	when int64
	idx  int // heap index; -1 once popped or cancelled
	f    *future
	val  func() any
	err  error
}

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// arm schedules e to fire d from now. A non-positive d makes it due at
// once; it still fires on a worker or the fallback timer, never on the
// caller.
func (rt *Runtime) arm(e *clockEntry, d time.Duration) {
	c := &rt.clock
	e.when = c.now() + int64(d)
	c.mu.Lock()
	heap.Push(&c.heap, e)
	c.head.Store(c.heap[0].when)
	rt.armFallback()
	c.mu.Unlock()
}

// cancelEntry removes e if it has not fired. The fallback timer is left
// alone: if it was armed for e it fires, finds nothing due and re-arms
// at the new head.
func (rt *Runtime) cancelEntry(e *clockEntry) {
	c := &rt.clock
	c.mu.Lock()
	if e.idx >= 0 {
		c.remove(e.idx)
	}
	c.mu.Unlock()
}

// pollClock fires every due entry: the workers' check at task
// boundaries and Checkpoint. Nothing armed costs one atomic load.
func (rt *Runtime) pollClock() {
	h := rt.clock.head.Load()
	if h == never {
		return
	}
	if now := rt.clock.now(); h <= now {
		rt.fireDue(now)
	}
}

// fireDue pops and fires the entries due at now, one at a time: each is
// popped under the mutex and fired outside it, so a racing worker or
// the fallback timer pops a different entry or none.
func (rt *Runtime) fireDue(now int64) {
	c := &rt.clock
	for c.head.Load() <= now {
		c.mu.Lock()
		if len(c.heap) == 0 || c.heap[0].when > now {
			c.mu.Unlock()
			return
		}
		e := c.remove(0)
		c.mu.Unlock()
		rt.fire(e)
	}
}

// fire resolves e's future. An IO result that panics fails the IO's own
// future; the task whose boundary or Checkpoint ran it carries on.
func (rt *Runtime) fire(e *clockEntry) {
	v, err := e.result()
	if e.f.tryFinish(v, err) {
		rt.taskDone()
	}
}

func (e *clockEntry) result() (v any, err error) {
	if e.val == nil {
		return nil, e.err
	}
	defer func() {
		if r := recover(); r != nil {
			err = panicError("IO result", r)
		}
	}()
	return e.val(), nil
}

// armFallback moves the fallback timer to the head if the head is
// earlier than where it is armed. Called with c.mu held.
func (rt *Runtime) armFallback() {
	c := &rt.clock
	if c.noFallback || len(c.heap) == 0 || c.heap[0].when >= c.fallbackAt {
		return
	}
	c.fallbackAt = c.heap[0].when
	d := time.Duration(c.fallbackAt - c.now())
	if c.fallback == nil {
		c.fallback = time.AfterFunc(d, rt.fallbackFired)
	} else {
		c.fallback.Reset(d)
	}
}

// fallbackFired is the fallback timer's callback: fire what is due,
// then re-arm at whatever is left. It keeps running after Shutdown, so
// an IO armed before Shutdown still resolves for an external Await.
func (rt *Runtime) fallbackFired() {
	c := &rt.clock
	c.mu.Lock()
	c.fallbackAt = never
	c.mu.Unlock()
	rt.fireDue(c.now())
	c.mu.Lock()
	rt.armFallback()
	c.mu.Unlock()
}

// remove takes the entry at heap index i out of the heap and refreshes
// head. Called with c.mu held.
func (c *clock) remove(i int) *clockEntry {
	e := heap.Remove(&c.heap, i).(*clockEntry)
	if len(c.heap) == 0 {
		c.head.Store(never)
	} else {
		c.head.Store(c.heap[0].when)
	}
	return e
}

// entryHeap orders entries by due time; each entry keeps its index, so
// cancel can remove it without a search.
type entryHeap []*clockEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].when < h[j].when }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *entryHeap) Push(x any) {
	e := x.(*clockEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}
