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

// clock is the runtime's one source of deadlines. Each AfterFunc
// callback, IO completions included, is an entry of a min-heap ordered
// by due time, and the workers fire due entries themselves: after every
// task in worker.run, in next() before parking, and at the top of
// Checkpoint. A 100 µs IO therefore completes within one task's length
// of its due time, instead of on the Go timer's ~1 ms tick, which is
// how a Go process whose spare Ps sleep in epoll_wait serves a short
// timer.
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

// clockEntry is one armed callback: when it is due, fn runs. Whoever
// pops it from the heap — a firing worker, the fallback timer or a
// cancel — owns it, so fn runs at most once, and never after a cancel
// that removed it.
type clockEntry struct {
	when int64
	idx  int // heap index; -1 once popped or cancelled
	fn   func()
}

func (c *clock) now() int64 { return int64(time.Since(c.epoch)) }

// AfterFunc arms fn to run once d has passed, and returns the cancel
// that disarms it. fn runs outside any task, on the first worker to
// pass a task boundary, park or Checkpoint after the due time, or on
// the clock's fallback timer when every worker is parked or the
// runtime is shut down: a device completion, not a task. It gets no
// Ctx, so what it spawns starts at its own priority and inherits no
// boost from the task whose Checkpoint fired it. fn must not block and
// must not panic; it runs on a worker's stack between tasks.
//
// An armed entry counts as outstanding until it is cancelled or fn has
// returned, so WaitIdle waits for it, and a task fn spawns is counted
// before the entry stops counting. cancel removes the entry if it has
// not been popped to fire; a cancel after firing, or a second cancel,
// does nothing. A cancel that races the firing does not wait for fn, so
// a caller that must know who went first keeps its own
// first-writer-wins flag.
func (rt *Runtime) AfterFunc(d time.Duration, fn func()) (cancel func()) {
	e := rt.arm(d, fn)
	return func() { rt.cancelEntry(e) }
}

// arm is AfterFunc without the cancel closure, for IO, which never
// cancels. A non-positive d makes the entry due at once; it still fires
// on a worker or the fallback timer, never on the caller.
func (rt *Runtime) arm(d time.Duration, fn func()) *clockEntry {
	c := &rt.clock
	e := &clockEntry{when: c.now() + int64(d), fn: fn}
	rt.outstanding.Add(1)
	c.mu.Lock()
	heap.Push(&c.heap, e)
	c.head.Store(c.heap[0].when)
	rt.armFallback()
	c.mu.Unlock()
	return e
}

// cancelEntry removes e if it has not fired, retiring its outstanding
// count. A cancel that empties the heap stops the fallback timer, so a
// runtime with nothing armed holds no timer; otherwise the timer is left
// alone: if it was armed for e it fires, finds nothing due and re-arms
// at the new head.
func (rt *Runtime) cancelEntry(e *clockEntry) {
	c := &rt.clock
	c.mu.Lock()
	armed := e.idx >= 0
	if armed {
		c.remove(e.idx)
		if len(c.heap) == 0 && c.fallback != nil {
			c.fallback.Stop()
			c.fallbackAt = never
		}
	}
	c.mu.Unlock()
	if armed {
		rt.taskDone()
	}
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

// fire runs e's callback and then retires its outstanding count, so
// whatever the callback spawns is counted before the entry stops
// counting.
func (rt *Runtime) fire(e *clockEntry) {
	e.fn()
	rt.taskDone()
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
// an entry armed before Shutdown still fires: an IO still resolves for
// an external Await.
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
