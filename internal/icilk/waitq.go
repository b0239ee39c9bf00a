package icilk

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// A lock is a state word plus a serial wait structure. The state word,
// the fast paths over it and the grant policy differ between Mutex and
// RWMutex and live with each type; everything that happens once an
// acquire has to wait is the same for both and lives here, once: publish
// the blocked-on edge, walk it for a deadlock, lend the holder the
// waiter's priority, queue by priority, park — and on the other side,
// take the grantee off the queue and retract its edge before it is
// published as owner.
//
// The invariant the hand-off keeps: a task is never the owner of the
// lock its waitingOn names. Both walkers of the waitingOn chain
// (checkDeadlock, propagateBoost) read it without any lock; if a grantee
// kept its edge until it resumed it would, for that window, be holder
// and waiter of one lock — a self-loop to the walk, and once it cleared
// the edge and blocked elsewhere, a path stitched from edges that never
// coexisted.

// Wait-list indexes. A Mutex queues every waiter on qWrite; an RWMutex
// keeps readers and writers apart so its grant policy can choose
// between them.
const (
	qWrite = iota
	qRead
)

// unlocker is the one thing the queue asks of its enclosing lock: a
// panicking holder releases it through the ordinary hand-off.
type unlocker interface{ Unlock(c *Ctx) }

// waitq is the wait structure Mutex and RWMutex embed. It is also the
// lock's identity everywhere a task refers to one: task.held,
// task.waitingOn, task.waitList and the lock-order graph all hold
// *waitq.
type waitq struct {
	rt   *Runtime
	kind string // "mutex" or "rwmutex", for reports
	name string

	// lock is the enclosing lock and holder its owner word: the task
	// holding it exclusively, nil when free or held only by (anonymous)
	// readers. The lock type's fast paths store holder after the
	// acquiring CAS and clear it before the releasing one, so a reader
	// may transiently see nil while the lock changes hands.
	lock   unlocker
	holder *atomic.Pointer[task]

	// mu guards the lists and is only ever taken on a slow path. Each
	// list is ordered by waitPrio, highest first, FIFO among equals, so
	// a grant pops the head. mu is also what every write of a queued
	// task's waitPrio, waitList and waitingOn happens under.
	mu    sync.Mutex
	lists [2][]*task
}

// init wires the queue to its enclosing lock and that lock's owner word.
func (q *waitq) init(rt *Runtime, kind, name string, lock unlocker, holder *atomic.Pointer[task]) {
	q.rt, q.kind, q.name, q.lock, q.holder = rt, kind, name, lock, holder
}

// holderTask is the exclusive holder as the chain walks see it.
func (q *waitq) holderTask() *task { return q.holder.Load() }

// lockLabel names the lock in deadlock and lock-order reports.
func (q *waitq) lockLabel() string {
	if q.name == "" {
		return q.kind + " (unnamed)"
	}
	return fmt.Sprintf("%s %q", q.kind, q.name)
}

// resolveHolder returns the exclusive holder of a lock whose state word
// the caller, holding q.mu, has just seen exclusively held with this
// waiter's registration pinning every release to the slow path. A nil
// owner word there is an owner store still in flight — the acquiring
// CAS and the publish are two instructions, and a failed fast Unlock
// briefly nils the owner before restoring it — and no path publishes an
// owner while waiting on q.mu, so yielding the processor resolves it
// promptly. Skipping the boost instead would let that holder run its
// whole critical section unboosted.
func (q *waitq) resolveHolder() *task {
	for {
		if h := q.holder.Load(); h != nil {
			return h
		}
		runtime.Gosched()
	}
}

// acquired and released are the bookkeeping of an exclusive hold, run
// from the holder's own context: the held list dropBoost recomputes
// from, the lock-order recorder, and on release the inherited boost.
func (q *waitq) acquired(t *task) {
	t.held = append(t.held, q)
	q.recordAcquire(t)
}

func (q *waitq) released(t *task) {
	for i, h := range t.held {
		if h == q {
			t.held = append(t.held[:i], t.held[i+1:]...)
			break
		}
	}
	q.recordRelease(t)
	t.dropBoost()
}

// recordAcquire and recordRelease are the lock-order recorder's gate,
// and all the bookkeeping a read hold has.
func (q *waitq) recordAcquire(t *task) {
	if t.rt.cfg.RecordLockOrder {
		t.rt.recordAcquire(t, q)
	}
}

func (q *waitq) recordRelease(t *task) {
	if t.rt.cfg.RecordLockOrder {
		t.rt.recordRelease(t, q)
	}
}

// block parks the running task on lists[which] until a grant pops it;
// when it returns nil the lock is held in the mode the task queued for.
// The caller holds q.mu, has pinned releases to the slow path through
// its state word, and passes the exclusive holder it waits behind (nil
// behind anonymous readers); block releases q.mu. With
// Config.DetectDeadlocks a cycle closing at this task is returned
// instead of parking, with the task not queued and its edge retracted.
func (q *waitq) block(c *Ctx, which int, holder *task, parks *counter) *DeadlockError {
	g, t, rt := c.g, c.t, q.rt
	// The edge is published unconditionally: propagateBoost traverses it
	// with deadlock detection off.
	t.blockEdge(q)
	if rt.cfg.DetectDeadlocks && holder != nil {
		if cyc := checkDeadlock(t, q, holder); cyc != nil {
			t.waitingOn.Store(nil)
			q.mu.Unlock()
			return cyc
		}
	}
	boosted := inheritInto(rt, holder, t)
	// prepare must precede the insert: from then on a grant can requeue
	// the task and a worker can attempt the resume send (the same
	// protocol as future.touch).
	g.prepare(t)
	w := g.w // capture before t becomes resumable; see gctx.park
	// waitList goes up before waitPrio is read, so a boost landing in
	// between either is in waitPrio or finds the list to re-sort.
	t.waitList.Store(q)
	t.waitPrio = t.effPrio()
	q.lists[which] = insertByPrio(q.lists[which], t)
	q.mu.Unlock()
	if boosted {
		propagateBoost(rt, holder)
	}
	parks.Add(1)
	g.park(rt, w)
	return nil
}

// pop removes the head of lists[which] for a grant, and popAll the whole
// list. Both retract the grantee's waitList and waitingOn here, under
// q.mu and before the caller publishes it as holder or counts it into
// the state word — the one place the invariant above is kept. Caller
// holds q.mu and the list is not empty.
func (q *waitq) pop(which int) *task {
	ws := q.lists[which]
	t := ws[0]
	copy(ws, ws[1:])
	ws[len(ws)-1] = nil
	q.lists[which] = ws[:len(ws)-1]
	t.waitList.Store(nil)
	t.waitingOn.Store(nil)
	return t
}

func (q *waitq) popAll(which int) []*task {
	ws := q.lists[which]
	q.lists[which] = nil
	for _, t := range ws {
		t.waitList.Store(nil)
		t.waitingOn.Store(nil)
	}
	return ws
}

// headPrio is the sort key of the best waiter on lists[which], or -1
// when it is empty. Caller holds q.mu.
func (q *waitq) headPrio(which int) Priority {
	if ws := q.lists[which]; len(ws) > 0 {
		return ws[0].waitPrio
	}
	return -1
}

// empty reports whether no task is queued in either mode. Caller holds
// q.mu.
func (q *waitq) empty() bool { return len(q.lists[qWrite]) == 0 && len(q.lists[qRead]) == 0 }

// maxWaiterPrio reports the highest effective priority among tasks
// blocked on the lock, or -1 when none — dropBoost's input when the
// holder recomputes its inherited floor. The scan reads live effPrio (a
// queued waiter's boost may have risen since it was enqueued).
func (q *waitq) maxWaiterPrio() Priority {
	best := Priority(-1)
	q.mu.Lock()
	for _, ws := range q.lists {
		for _, wt := range ws {
			if p := wt.effPrio(); p > best {
				best = p
			}
		}
	}
	q.mu.Unlock()
	return best
}

// repositionWaiter re-sorts t after a mid-wait boost lifted its
// effective priority past its enqueue-time sort key. A no-op if t was
// granted concurrently and is no longer queued. The nested-blocking
// shape that needs it: H holds lock A, waits on lock B, and a
// high-priority waiter arrives on A — without the re-sort H would stay
// queued on B at its stale priority and the boost would not shorten the
// chain.
func (q *waitq) repositionWaiter(t *task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for which, ws := range q.lists {
		for i, wt := range ws {
			if wt != t {
				continue
			}
			if np := t.effPrio(); np > t.waitPrio {
				copy(ws[i:], ws[i+1:])
				t.waitPrio = np
				q.lists[which] = insertByPrio(ws[:len(ws)-1], t)
			}
			return
		}
	}
}

// insertByPrio inserts t into a waiter list kept ordered by waitPrio,
// highest first, FIFO among equals: binary-search the first strictly
// lower slot, shift, place.
func insertByPrio(ws []*task, t *task) []*task {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].waitPrio < t.waitPrio })
	ws = append(ws, nil)
	copy(ws[i+1:], ws[i:])
	ws[i] = t
	return ws
}

// inheritInto is the priority-inheritance event: raise the holder's
// effective priority to the blocked waiter's and, if it actually rose,
// kick the holder — if it is sitting in a run queue at its old level,
// make it visible at the waiter's level by injecting a duplicate entry
// there. The dispatch claim arbitrates: whichever entry is popped first
// runs the holder, the other is dropped. If the holder is running or
// parked the duplicate dies harmlessly (its claim fails), and the boost
// takes effect at the next requeue. Returns whether the boost actually
// rose; the caller then runs propagateBoost AFTER releasing q.mu
// (taking another lock's mu from under this one could deadlock against
// a crossed inheritance in the other direction).
func inheritInto(rt *Runtime, holder, waiter *task) bool {
	if holder == nil || !rt.cfg.inherit || !holder.raiseBoost(waiter.effPrio()) {
		return false
	}
	rt.stats.inherits.Add(1)
	rt.levels[rt.effLevel(holder.effPrio())].inject.push(holder)
	rt.wake()
	return true
}

// propagateBoost runs the deferred half of an inheritance event, with
// no q.mu held: re-sort the freshly boosted holder in whatever waiter
// list it sits on, then chain the boost along its blocked-on edge. A
// holder that is itself parked on another lock leaves the lock a
// high-priority waiter just blocked on transitively held up behind
// whatever ITS holder is doing — so that next holder is raised too,
// re-sorted, and the walk continues to the chain's end. Each onward hop
// is counted in SchedStats.TransitiveBoosts and re-injects the
// re-boosted task at its new level (same duplicate-entry kick as the
// direct event).
//
// Termination: raiseBoost refuses a boost that does not rise, so a
// cyclic chain (an undetected deadlock) stops the moment priorities
// equalize around the loop, and maxCycleWalk bounds the rest. The reads
// are unlocked, so a holder can have released or a waiter been granted
// since: the re-sort then finds nothing, or a task is boosted that no
// longer blocks the chain — a transient over-boost that dropBoost and
// shedSpawnBoost shed. Chains end silently at anonymous read holders
// and at drain-parked writers (neither publishes an edge), the same
// visibility limit the deadlock walk has.
func propagateBoost(rt *Runtime, holder *task) {
	cur := holder
	for hop := 0; hop < maxCycleWalk; hop++ {
		if wl := cur.waitList.Load(); wl != nil {
			wl.repositionWaiter(cur)
		}
		edge := cur.waitingOn.Load()
		if edge == nil {
			return
		}
		next := edge.holderTask()
		if next == nil || next == cur || !next.raiseBoost(cur.effPrio()) {
			return
		}
		rt.stats.transBoosts.Add(1)
		rt.levels[rt.effLevel(next.effPrio())].inject.push(next)
		rt.wake()
		cur = next
	}
}

// releaseHeld is what a task that dies with locks held runs before its
// future fails: every exclusive hold goes through the ordinary
// Unlock (and so its hand-off), newest first, and every slot read hold
// through slotRelease, so one panic cannot park every later acquirer
// forever. Centralized read holds are a bare count with no record of
// who holds them and cannot be released here.
func (t *task) releaseHeld(c *Ctx) {
	for len(t.held) > 0 {
		t.held[len(t.held)-1].lock.Unlock(c)
	}
	for _, h := range t.rslots {
		h.m.slotRelease(h.sl)
	}
	t.rslots = t.rslots[:0]
}
