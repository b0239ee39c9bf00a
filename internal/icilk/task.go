package icilk

import (
	"fmt"
	"sync/atomic"
)

// Priority is a runtime priority level. Larger values are more urgent.
// Unlike λ4i's partially ordered priorities, the runtime's levels are
// totally ordered — matching I-Cilk, whose two-level scheduler assigns
// cores to levels "in the order of priority" (Section 4.3).
type Priority int

// task is one spawned computation. A task starts life as a bare closure:
// the worker that pops it runs fn inline on its own goroutine, with no
// goroutine spawn and no channel traffic — the fast path for the common
// task that never blocks. Only when the task first blocks (an
// unresolved Touch, or an explicit Yield) is it promoted to a fiber: the
// running goroutine hands its worker identity to a freshly spawned
// runner and parks itself, keeping the task's whole stack intact. From
// then on the task is scheduled by a resume/yield handshake with
// whichever worker picks it up.
type task struct {
	rt   *Runtime
	prio Priority
	fut  *future
	name string
	fn   func(*Ctx) any

	// g is nil while the task is a bare closure and points to its
	// goroutine's execution context once the task has parked. Workers
	// popping a task use it to decide between inline execution and the
	// fiber handshake. It is written before the task becomes visible in
	// any queue (future waiter list or run queue), so the queue's
	// synchronization publishes it.
	g *gctx

	// ctx is the task's execution context, embedded so running a task
	// allocates nothing beyond the task itself. Built by execTask; a
	// *Ctx retained past the task's end is invalid.
	ctx Ctx

	// blockedOn is set while parked on a future (diagnostics only).
	blockedOn *future

	// waitingOn is the blocked-on edge: the lock this task is queued on,
	// which the deadlock cycle walk (Config.Debug) and transitive
	// priority inheritance (propagateBoost) traverse without taking any
	// lock, and whose waiter list a mid-wait boost re-sorts. Written only
	// under that lock's waitq.mu: set by the task itself before it
	// becomes visible on the waiter list, cleared by the grant that pops
	// it — before the task is published as the lock's holder, so a task
	// is never owner of the lock its waitingOn names. Always published:
	// inheritance must see the edge regardless of debug flags.
	waitingOn atomic.Pointer[waitq]

	// boost is the priority-inheritance floor: while a higher-priority
	// task waits on a Mutex this task holds, boost carries the waiter's
	// priority and every queue-placement decision uses effPrio instead of
	// prio. Zero means no boost (priority 0 can never exceed a base
	// priority, so the zero value needs no sentinel).
	boost atomic.Int32

	// claimed guards dispatch when a task may appear in more than one run
	// queue at once (priority-inheritance re-leveling pushes a duplicate
	// entry at the waiter's level). It is reset to false each time the
	// task is made runnable (submit/requeue) and CASed true by the worker
	// that dispatches it; an entry whose CAS fails is a stale duplicate
	// and is dropped.
	claimed atomic.Bool

	// held lists the boostable locks (Mutex, RWMutex write side) this
	// task currently holds, newest last. It is task-private (only read
	// and written from the task's own execution context), and is what
	// Unlock scans to recompute boost when inheritance from one critical
	// section ends while another is still in progress — and what a
	// panicking task releases (releaseHeld).
	held []*waitq

	// floor is the spawn-inherited boost floor: a task spawned from
	// inside a boosted critical section starts with the parent's boost,
	// and that boost must survive until the task first blocks holding no
	// locks (shedSpawnBoost), even across Lock/Unlock pairs in between —
	// dropBoost recomputes down to floor, not prio. Task-private:
	// written at spawn before the task is published, cleared only from
	// the task's own context.
	floor Priority

	// ordHeld is the lock-order recorder's held set (Config.Debug):
	// every lock this task holds in ANY mode, read holds included —
	// unlike held, which only write-side boost recomputation needs.
	// Task-private, like held.
	ordHeld []*waitq

	// waitPrio is the task's effective priority at the moment it was
	// enqueued on a lock's waiter list — the sort key of the
	// priority-ordered list. Written under the lock's waitq.mu (at
	// enqueue and by repositionWaiter when a mid-wait boost re-sorts the
	// entry); a task waits on at most one lock at a time.
	waitPrio Priority

	// rheld lists the RWMutex read holds this task currently has, one
	// entry per hold, newest last: RLock appends, RUnlock drops, and a
	// panicking task releases what is left (releaseHeld). Task-private,
	// like held.
	rheld []*RWMutex

	// fwdVal/fwdErr deliver a touched future's outcome to this task
	// while it is parked as a waiter: finish writes them before the
	// requeue, and the resumed toucher reads them instead of re-reading
	// the future cell (which, after a migration, is not the one that
	// resolved). fwdBudget is the forwarding budget the task parked
	// with: zero for a plain Touch, positive for TouchThroughN, where
	// finish may consume hops by migrating the parked task along a
	// carrier chain. All three are written by the task itself before it
	// becomes visible on a waiter list, or by finish before the
	// requeue; the park/requeue handshake publishes them.
	fwdBudget int32
	fwdVal    any
	fwdErr    error
}

// effPrio is the task's effective priority: its declared priority, or
// the inherited boost when a higher-priority waiter is blocked behind
// it. All queue placement (submit, requeue) routes on effPrio; the
// declared prio still governs inversion checks and child priorities.
func (t *task) effPrio() Priority {
	if b := t.boost.Load(); b > int32(t.prio) {
		return Priority(b)
	}
	return t.prio
}

// raiseBoost lifts the task's effective priority to at least p,
// reporting whether it actually rose (the inheritance event).
func (t *task) raiseBoost(p Priority) bool {
	if p <= t.prio {
		return false
	}
	for {
		cur := t.boost.Load()
		if int32(p) <= cur {
			return false
		}
		if t.boost.CompareAndSwap(cur, int32(p)) {
			return true
		}
	}
}

// dropBoost recomputes the task's boost from the waiters of the locks
// it still holds, never dropping below the spawn-inherited floor —
// called by Unlock from the task's own context. A concurrent
// raiseBoost (a new waiter arriving on another held lock) makes the
// CAS fail; the loop then rescans and finds the newcomer.
func (t *task) dropBoost() {
	for {
		cur := t.boost.Load()
		if cur <= int32(t.prio) {
			return
		}
		target := int32(t.prio)
		if f := int32(t.floor); f > target {
			target = f
		}
		for _, l := range t.held {
			if p := int32(l.maxWaiterPrio()); p > target {
				target = p
			}
		}
		if cur <= target {
			return
		}
		if t.boost.CompareAndSwap(cur, target) {
			return
		}
	}
}

// tryClaim is the dispatch gate: exactly one queue entry per runnable
// round wins it and runs the task; duplicates (inheritance kicks) lose
// and are dropped by the popper.
func (t *task) tryClaim() bool {
	return t.claimed.CompareAndSwap(false, true)
}

// shedSpawnBoost clears a spawn-inherited boost when the task blocks
// while holding no locks. The inherited floor exists so work forked
// inside a boosted critical section runs at the critical section's
// level; a lock-free task parking marks the end of that usefulness —
// without shedding, fire-and-forget work spawned inside a critical
// section would occupy the high level for its whole lifetime. Called
// only from the task's own context, where len(held) == 0 implies no
// Mutex lists the task as holder, so no concurrent raiseBoost can race
// the clear.
func (t *task) shedSpawnBoost() {
	if len(t.held) == 0 {
		t.floor = 0
		if t.boost.Load() != 0 {
			t.boost.Store(0)
		}
	}
}

// gctx is the execution context of a goroutine that runs tasks: either a
// worker's runner goroutine executing tasks inline, or a fiber — an
// ex-runner that parked mid-task and now holds one or more task frames.
// The slot-granting handshake, the current worker identity, and the
// promotion state all live here, because with inline helping a single
// goroutine can carry a stack of nested tasks that park and resume as a
// unit.
type gctx struct {
	// w is the worker whose slot this goroutine currently holds. It is
	// written by the granting worker before the resume send (or before
	// inline dispatch), so the channel/call provides the ordering.
	w *worker
	// grantLvl is w's level assignment at the moment of the grant;
	// Checkpoint compares it against the live assignment.
	grantLvl int32

	// resume and yield exist once the goroutine has parked at least
	// once. A worker grants the slot by sending on resume and takes it
	// back by receiving on yield.
	resume chan struct{}
	yield  chan struct{}

	// handedOff records that this goroutine gave its worker-runner role
	// to a replacement and must retire (after releasing the slot) when
	// its outermost task frame unwinds.
	handedOff bool
}

// prepare makes t resumable: it materializes the handshake channels and
// publishes g on the task. Must be called before t is registered with a
// future or pushed to a run queue, so that a worker popping t
// immediately can complete the resume send.
func (g *gctx) prepare(t *task) {
	if g.resume == nil {
		g.resume = make(chan struct{})
		g.yield = make(chan struct{})
	}
	t.g = g
}

// park blocks this goroutine until a worker grants it the slot again.
// The caller must already have arranged for the innermost task to be
// requeued (as a future waiter or via submit), and must pass the worker
// whose slot it holds, captured BEFORE the task became visible: a worker
// popping the task overwrites g.w ahead of the resume send, so g.w must
// not be read here. On the first park the goroutine stops being a worker
// runner: it spawns a replacement runner for that worker (the WaitGroup
// slot transfers with the role) and becomes a fiber.
func (g *gctx) park(rt *Runtime, w *worker) {
	rt.stats.parks.Add(1)
	if !g.handedOff {
		g.handedOff = true
		rt.stats.promotions.Add(1)
		go w.run()
		<-g.resume
		return
	}
	// Release the slot to the worker that granted it, then wait.
	g.yield <- struct{}{}
	<-g.resume
}

// Ctx is passed to every task body. It identifies the running task and
// carries the cooperative-scheduling operations.
type Ctx struct {
	t *task
	g *gctx
}

// Priority returns the running task's priority.
func (c *Ctx) Priority() Priority { return c.t.prio }

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.t.rt }

// WorkerID returns the id of the worker slot currently executing this
// task, in [0, Config.Workers). It is a placement hint — the task can
// be on a different worker after its next park — which is exactly what
// striped counters and sharded stores need: any stable-ish index that
// spreads concurrent writers across cache lines. Returns 0 when the
// worker identity is momentarily unavailable.
func (c *Ctx) WorkerID() int {
	if w := c.g.w; w != nil {
		return w.id
	}
	return 0
}

// Yield returns the slot to the scheduler unconditionally; the task is
// requeued at its level and resumes when a worker's scan reaches it
// again, after any ready work at a higher level. Long-running compute
// tasks should prefer Checkpoint, which yields only when there is
// something more urgent for this worker to do.
func (c *Ctx) Yield() {
	g, t := c.g, c.t
	t.shedSpawnBoost()
	g.prepare(t)
	w := g.w // capture before t becomes poppable; see park
	// Requeue before parking: a worker may pop t and attempt the resume
	// send immediately, which simply blocks until park reaches the
	// receive.
	t.rt.submit(t, g)
	g.park(t.rt, w)
}

// Checkpoint is the preemption point of a long-running task. It yields
// if the master has reassigned this worker since it granted the task's
// goroutine the slot (the quantum-boundary preemption of the two-level
// scheduler), or if a level above the task's effective priority has work
// in its injection queue — an arrival, an unblocked waiter or a boosted
// lock holder, which the worker's next scan takes before coming back to
// this task. Only the levels above the task are read, one queue size
// each (none at the top level or in the baseline), so it is cheap enough
// for inner loops; and the first worker to yield for an entry pops it,
// so one arrival costs at most one yield per worker.
func (c *Ctx) Checkpoint() {
	g, rt := c.g, c.t.rt
	w := g.w
	if w == nil {
		return
	}
	if rt.assignment[w.id].Load() != g.grantLvl {
		c.Yield()
		return
	}
	own := rt.effLevel(c.t.effPrio())
	for lvl := len(rt.levels) - 1; lvl > own; lvl-- {
		if rt.levels[lvl].inject.size() > 0 {
			rt.stats.preemptYields.Add(1)
			c.Yield()
			return
		}
	}
}

// PriorityInversionError reports a priority-discipline violation —
// an ftouch from a higher-priority task on a lower-priority future, or
// a Ref/Mutex access from above the primitive's ceiling — exactly what
// the λ4i type system rules out statically and this runtime (C++ being
// no safer than Go here) detects dynamically.
type PriorityInversionError struct {
	Toucher Priority
	Touched Priority
	// Primitive and Name identify the violated object for state
	// ceilings: Primitive is "ref", "counter", "mutex", "rwmutex(read)"
	// or "rwmutex(write)", and Name is the name a Mutex or RWMutex was
	// constructed with (empty for refs and counters). Both are empty
	// for future touches.
	Primitive string
	Name      string
}

func (e *PriorityInversionError) Error() string {
	if e.Primitive != "" {
		return fmt.Sprintf("icilk: priority inversion: %s %q (ceiling %d) accessed from priority-%d task",
			e.Primitive, e.Name, e.Touched, e.Toucher)
	}
	return fmt.Sprintf("icilk: priority inversion: touch of priority-%d future from priority-%d task",
		e.Touched, e.Toucher)
}

// execTask runs t's body to completion on the current goroutine — the
// fcreate fast path. A panic in the body (including a
// PriorityInversionError from a nested Touch) releases the locks the
// task held and fails the future; touching a failed future re-panics the
// error in the toucher, so failures propagate along join edges instead
// of crashing unrelated workers or stranding later acquirers.
// execTask returns only once the task has finished (it may park and be
// resumed by other workers any number of times in between).
func (rt *Runtime) execTask(g *gctx, t *task) {
	t.ctx = Ctx{t: t, g: g}
	c := &t.ctx
	defer func() {
		if r := recover(); r != nil {
			t.releaseHeld(c)
			if err, ok := r.(error); ok {
				t.fut.fail(fmt.Errorf("icilk: task %q panicked: %w", t.name, err))
			} else {
				t.fut.fail(fmt.Errorf("icilk: task %q panicked: %v", t.name, r))
			}
			rt.taskDone()
		}
	}()
	v := t.fn(c)
	inline := t.g == nil
	if inline {
		// The task finished without ever parking — the fcreate fast
		// path: no goroutine, no channel operations, no promotion.
		rt.stats.inlineRuns.Add(1)
	}
	t.fut.complete(v)
	rt.taskDone()
}

// runTask executes t using the slot currently held by g's goroutine:
// inline for a bare closure, by resume/yield handshake for a promoted
// task's fiber. Callers are the worker run loop and the touch-time
// helping path. g.grantLvl is deliberately left alone: it changes only
// when a slot is acquired (the run loop sets it per dispatch, park's
// granter sets it per resume), so helping mid-task cannot clobber the
// outer task's Checkpoint baseline. A fiber granted the slot inherits
// the grantor's baseline — it is the same slot under the same mandate.
func (rt *Runtime) runTask(g *gctx, t *task) {
	if fb := t.g; fb != nil {
		fb.w, fb.grantLvl = g.w, g.grantLvl
		rt.stats.resumes.Add(1)
		fb.resume <- struct{}{}
		<-fb.yield
		return
	}
	rt.execTask(g, t)
}
