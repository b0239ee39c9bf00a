package icilk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// future is the untyped core of a Future: a completion cell with waiters.
// Completion is push-based: finish requeues every parked waiter at its
// own level and wakes parked workers, and closes the external-waiter
// channel if one exists. Nothing ever polls a future.
//
// Values reach parked waiters through the waiter task (fwdVal/fwdErr),
// not by re-reading the cell after resume: finish may have migrated a
// forwarding waiter down a carrier chain, so the cell the waiter parked
// on need not be the one that resolved it.
type future struct {
	mu   sync.Mutex
	prio Priority

	// done flips exactly once, after val/err are written (both under
	// mu). A toucher that observes done via the atomic load may read
	// val/err without the mutex — the single-atomic-load fast path for
	// already-resolved futures.
	done atomic.Bool

	val     any
	err     error
	waiters []*task

	// owner is the task computing this future (nil for IO futures). The
	// touch fast path uses it to run a not-yet-started producer inline
	// on the toucher's own deque instead of parking — the work-first
	// discipline that makes spawn/touch chains run at closure-call cost.
	owner *task

	// doneCh is created lazily by the first external Await and closed on
	// completion. Task-side Touch never allocates it.
	doneCh chan struct{}
}

// maxForwardHops bounds a forwarding walk: TouchThroughN clamps its
// budget to it, so a cycle of handles ends the walk at a carrier instead
// of spinning.
const maxForwardHops = 64

// futureCarrier is the forwarding hook: a completion value that carries
// a future handle of its own. Any value with an embedded Handle
// implements it (the method promotes across packages), which is how
// the compiled λ4i backend marks thread-id values as forwardable
// without the runtime knowing anything about the AST.
type futureCarrier interface {
	carriedFuture() *future
}

// complete stores the value and wakes every waiter.
func (f *future) complete(v any) { f.finish(v, nil) }

// fail completes the future with an error; touchers re-panic it.
func (f *future) fail(err error) { f.finish(nil, err) }

// finish resolves the future and requeues every parked waiter.
//
// Forwarding happens here for parked waiters: a waiter that parked via
// TouchThroughN (fwdBudget > 0) whose value turns out to be a carrier of
// a still-pending inner future is migrated onto that inner future's
// waiter list instead of being woken — the waiter stays parked, pays no
// wake/re-park round trip, and resumes only when the chain bottoms out.
func (f *future) finish(v any, err error) {
	if !f.tryFinish(v, err) {
		panic("icilk: future completed twice")
	}
}

// tryFinish is finish with first-writer-wins semantics: it resolves the
// future only if it is still unresolved, reporting whether this call was
// the one that resolved it — which is what makes a deadline timer safe
// to race against a normal completion.
func (f *future) tryFinish(v any, err error) bool {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		return false
	}
	f.val = v
	f.err = err
	f.done.Store(true)
	waiters := f.waiters
	f.waiters = nil
	ch := f.doneCh
	f.doneCh = nil
	// Drop the producer so a long-lived Future handle does not retain
	// the task, its closure, and any promoted fiber context.
	f.owner = nil
	f.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	var rt *Runtime
	for _, t := range waiters {
		if err == nil && t.fwdBudget > 0 {
			if fc, ok := v.(futureCarrier); ok && t.migrateTo(fc.carriedFuture()) {
				// Forwarded: the waiter now parks on the inner future;
				// no requeue, no wake.
				continue
			}
		}
		t.fwdVal, t.fwdErr = v, err
		t.blockedOn = nil
		rt = t.rt // read before the push: t is resumable the moment it lands
		rt.enqueue(t)
	}
	// One wake for the whole fan-in: N waiters cost one broadcast, not N.
	if rt != nil {
		rt.wake()
	}
	return true
}

// migrateTo moves a parked forwarding waiter onto the carrier's inner
// future, consuming one hop of its budget. False means the inner future
// is already done and the caller requeues the waiter itself (the
// resumed toucher walks the rest synchronously).
func (t *task) migrateTo(inner *future) bool {
	inner.mu.Lock()
	if inner.done.Load() {
		inner.mu.Unlock()
		return false
	}
	t.fwdBudget--
	t.blockedOn = inner
	inner.waiters = append(inner.waiters, t)
	inner.mu.Unlock()
	t.rt.stats.forwards.Add(1)
	return true
}

// touch implements ftouch for the running task: one future, no
// forwarding (a plain Touch of a Future[Handle] must return the handle,
// not see through it).
func (f *future) touch(c *Ctx) any {
	budget := 0
	return f.touchOne(c, &budget)
}

// touchChain is the forwarding touch: resolve f, and while the value is
// itself a future carrier and budget remains, hop to the inner future —
// synchronously when it is already done, by parked-waiter migration
// (see finish) when it is not. A value that is still a carrier when the
// budget runs out is returned as-is (the compiled backend's bounded
// fusion wants exactly-N touches, not all-the-way resolution).
func (f *future) touchChain(c *Ctx, budget int) any {
	rt := c.t.rt
	cur := f
	for {
		v := cur.touchOne(c, &budget)
		fc, ok := v.(futureCarrier)
		if !ok {
			return v
		}
		if budget <= 0 {
			return v
		}
		budget--
		rt.stats.forwards.Add(1)
		cur = fc.carriedFuture()
	}
}

// touchOne resolves one future for the running task. Resolution order:
//
//  1. Fast path: the future is already done — one atomic load, then
//     read the value. No mutex, no wake machinery.
//  2. Helping: the producing task is runnable but not yet dispatched
//     (the common spawn-then-touch shape leaves it at the bottom of
//     the current worker's own deque). Win its dispatch claim under
//     f.mu and run it right here; no park, no channels, no goroutines.
//     Only the producer itself is eligible — running it inline is
//     equivalent to a sequential schedule of the join edge, so it can
//     introduce no deadlock the program didn't already have.
//  3. Park: register as a waiter and suspend the goroutine, releasing
//     the worker slot (the latency-hiding behavior of Section 4.1);
//     completion requeues the task and a worker resumes it. *budget is
//     the forwarding budget the waiter parks with; finish may consume
//     hops from it by migrating the parked task down a carrier chain,
//     and the remainder is written back here after the resume.
func (f *future) touchOne(c *Ctx, budget *int) any {
	t := c.t
	rt := t.rt
	if t.prio > f.prio {
		panic(&PriorityInversionError{Toucher: t.prio, Touched: f.prio})
	}
	if f.done.Load() {
		// Value and error were written before the done flip; the atomic
		// load orders the reads.
		if f.err != nil {
			panic(f.err)
		}
		return f.val
	}
	g := c.g
	for {
		f.mu.Lock()
		if f.done.Load() {
			v, err := f.val, f.err
			f.mu.Unlock()
			if err != nil {
				panic(err)
			}
			return v
		}
		// The claim is taken while f.mu is held, so an owner seen here
		// has not finished yet; if it finishes before tryClaim, it keeps
		// the claim it was dispatched under and tryClaim fails. Once the
		// claim is won nobody else can run the producer behind our back.
		// The dispatch claim is the ownership token, not queue position:
		// whichever queue entry still names the claimed task — a deque
		// slot, an injection-queue slot after a cross-level spawn or an
		// unblock — loses tryClaim at its popper and is dropped, exactly
		// like a stale inheritance duplicate. A failed claim means the
		// producer is running or blocked elsewhere, so parking is the
		// right move.
		owner := f.owner
		if owner == nil || g.w == nil || !owner.tryClaim() {
			f.mu.Unlock()
			break
		}
		lvl := rt.effLevel(owner.effPrio())
		f.mu.Unlock()
		// The common spawn-then-touch shape left the producer's entry at
		// the bottom of our own deque; take it out so a spawn/touch loop
		// does not pile up stale entries. Anything else goes back (we
		// own the bottom).
		d := rt.levels[lvl].deques[g.w.id]
		if popped := d.popBottom(); popped != nil && popped != owner {
			d.pushBottom(popped)
		}
		rt.stats.helps.Add(1)
		rt.runTask(g, owner)
		// Inline execution finished the producer, so the next loop
		// iteration returns its value; a promoted producer may have
		// parked again instead, in which case we retry and eventually
		// fall through to parking ourselves.
	}

	// Slow path: park until completion. A spawn-inherited boost ends
	// here if no lock is held (see shedSpawnBoost); a lock holder keeps
	// its boost so the requeue lands at the waiter's level. prepare must
	// precede waiter registration so that a completion racing with us
	// can already resume the task.
	t.shedSpawnBoost()
	g.prepare(t)
	w := g.w // capture before t becomes resumable; see park
	f.mu.Lock()
	if f.done.Load() {
		v, err := f.val, f.err
		f.mu.Unlock()
		if err != nil {
			panic(err)
		}
		return v
	}
	t.blockedOn = f
	t.fwdBudget = int32(*budget)
	f.waiters = append(f.waiters, t)
	f.mu.Unlock()
	g.park(rt, w)
	// finish delivered the value through the task (and may have walked
	// part of a forwarding chain, consuming budget) before requeueing
	// us; the requeue/resume chain publishes the writes. The cell
	// itself is not re-read here: after a migration it is not the one
	// that resolved.
	*budget = int(t.fwdBudget)
	v, err := t.fwdVal, t.fwdErr
	t.fwdVal, t.fwdErr, t.fwdBudget = nil, nil, 0
	if err != nil {
		panic(err)
	}
	return v
}

// poll reports successful completion without blocking. A failed future
// reports as not done; the error surfaces only on Touch.
func (f *future) poll() bool { return f.done.Load() && f.err == nil }

// Future is a handle to an asynchronous computation of type T running at
// a fixed priority — the τ thread[ρ] of λ4i. It is one pointer, so
// passing and storing futures allocates nothing, and any number of
// tasks may touch it any number of times; the zero Future is invalid
// (Valid reports false) and must not be touched.
type Future[T any] struct {
	f *future
}

// Valid reports whether the handle refers to a future (the zero Future
// does not — it is the "no future here" sentinel for struct fields).
func (f Future[T]) Valid() bool { return f.f != nil }

// Priority returns the future's priority.
func (f Future[T]) Priority() Priority { return f.f.prio }

// Touch waits for the future and returns its value. Touching a future of
// strictly lower priority than the running task panics with a
// PriorityInversionError (the dynamic analogue of the λ4i Touch rule).
func (f Future[T]) Touch(c *Ctx) T { return f.f.touch(c).(T) }

// Done reports whether the future has completed successfully, without
// blocking and without priority checking (a non-blocking poll cannot
// invert priorities).
func (f Future[T]) Done() bool { return f.f.poll() }

// Untyped returns the untyped handle, used by data structures that store
// futures of mixed types (e.g. the email app's per-email slots).
func (f Future[T]) Untyped() *Handle { return &Handle{f: f.f} }

// Handle is an untyped future handle: first-class, storable in shared
// state, and touchable — the thread handles of λ4i. A completion value
// that embeds a Handle is a forwarding carrier: TouchThroughN resolves
// through it, and finish migrates parked forwarding waiters along it.
type Handle struct {
	f *future
}

// carriedFuture makes Handle (and every type embedding one) a
// forwarding carrier.
func (h Handle) carriedFuture() *future { return h.f }

// Valid reports whether the handle refers to a future.
func (h Handle) Valid() bool { return h.f != nil }

// Priority returns the handle's priority.
func (h *Handle) Priority() Priority { return h.f.prio }

// Touch waits for the underlying future and returns its untyped value.
// A plain Touch never forwards: touching a future whose value is itself
// a handle returns the handle.
func (h *Handle) Touch(c *Ctx) any { return h.f.touch(c) }

// TouchThroughN waits for the underlying future and, while the value is
// itself a future carrier (a Handle or any value embedding one) and hops
// remain, resolves through the chain: hops to already-done inner futures
// cost a pointer chase each, and a chain that completes progressively
// while the toucher is parked migrates the parked task link by link
// instead of waking it to re-park (SchedStats.ForwardedTouches counts
// hops). At most n hops are taken, n clamped to maxForwardHops, and a
// value that is still a carrier when the budget runs out — the end of a
// chain longer than n, or a cycle of handles — is returned as-is. The
// compiled λ4i backend uses n=1 to fuse `bind x = ftouch e in ftouch x`
// into one park.
func (h *Handle) TouchThroughN(c *Ctx, n int) any {
	if n < 0 {
		n = 0
	}
	if n > maxForwardHops {
		n = maxForwardHops
	}
	return h.f.touchChain(c, n)
}

// Done reports whether the underlying future completed successfully.
func (h *Handle) Done() bool { return h.f.poll() }

// Await blocks the calling goroutine (not a task — external code such as
// test harnesses and client simulators) until the future completes or the
// timeout elapses. Task code must use Touch, which frees its worker.
// Await blocks on a completion channel; it never polls.
func Await[T any](f Future[T], timeout time.Duration) (T, error) {
	var zero T
	ff := f.f
	ff.mu.Lock()
	if ff.done.Load() {
		v, err := ff.val, ff.err
		ff.mu.Unlock()
		if err != nil {
			return zero, err
		}
		return v.(T), nil
	}
	if ff.doneCh == nil {
		ff.doneCh = make(chan struct{})
	}
	ch := ff.doneCh
	ff.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		ff.mu.Lock()
		v, err := ff.val, ff.err
		ff.mu.Unlock()
		if err != nil {
			return zero, err
		}
		return v.(T), nil
	case <-timer.C:
		return zero, fmt.Errorf("icilk: Await timed out after %v", timeout)
	}
}
