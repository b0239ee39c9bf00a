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
// channel if one exists. Nothing ever polls a future. A resumed waiter
// reads val/err from the cell it parked on.
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

// complete stores the value and wakes every waiter.
func (f *future) complete(v any) { f.finish(v, nil) }

// fail completes the future with an error; touchers re-panic it.
func (f *future) fail(err error) { f.finish(nil, err) }

// finish resolves the future and requeues every parked waiter.
// A future is resolved once: a second finish panics.
func (f *future) finish(v any, err error) {
	f.mu.Lock()
	if f.done.Load() {
		f.mu.Unlock()
		panic("icilk: future completed twice")
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
		rt = t.rt // read before the push: t is resumable the moment it lands
		rt.enqueue(t)
	}
	// One wake for the whole fan-in: N waiters cost one broadcast, not N.
	if rt != nil {
		rt.wake()
	}
}

// touch resolves one future for the running task. Resolution order:
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
//     completion requeues the task and a worker resumes it.
//
// A touch of a future whose value is itself a Handle returns that
// Handle: ftouch of a thread yields the thread's value as-is (D-Touch).
func (f *future) touch(c *Ctx) any {
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
	f.waiters = append(f.waiters, t)
	f.mu.Unlock()
	g.park(rt, w)
	// finish wrote val/err before requeueing us, and the requeue/resume
	// handshake publishes those writes.
	if f.err != nil {
		panic(f.err)
	}
	return f.val
}

// poll reports successful completion without blocking. A failed future
// reports as not done; the error surfaces only on Touch.
func (f *future) poll() bool { return f.done.Load() && f.err == nil }

// Future is a handle to an asynchronous computation of type T running at
// a fixed priority — the τ thread[ρ] of λ4i. It is one pointer, so
// passing and storing futures allocates nothing, and any number of
// tasks may touch it any number of times; the zero Future is invalid
// and must not be touched.
type Future[T any] struct {
	f *future
}

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
// state, and touchable — the thread handles of λ4i.
type Handle struct {
	f *future
}

// Priority returns the handle's priority.
func (h *Handle) Priority() Priority { return h.f.prio }

// Touch waits for the underlying future and returns its untyped value.
// Touching a future whose value is itself a handle returns the handle.
func (h *Handle) Touch(c *Ctx) any { return h.f.touch(c) }

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
