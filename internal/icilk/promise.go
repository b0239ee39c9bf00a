package icilk

import "time"

// Promise is an externally completed future — the hook that device
// drivers use to inject real-world completions into the runtime. The
// timer-based IO helper and internal/serve's socket layer are both built
// on it: a reader, writer or timer goroutine observes an external event
// (a parsed request, a finished write, an expired timer) and calls
// Complete, which reuses the task completion path — waiters are requeued
// at their own levels and, if a worker is parked, it is woken before
// Complete returns; under load the wake is one atomic add. Nothing polls
// the promise.
//
// A Promise counts as outstanding from creation until Complete or Fail,
// so Runtime.WaitIdle waits for in-flight IO exactly as it waits for
// tasks. Complete and Fail may be called from any goroutine, but only
// once between them; a second resolution panics, matching the
// single-assignment semantics of futures. A Promise is a small value
// (like Future); the zero Promise is invalid and Valid reports so.
type Promise[T any] struct {
	rt  *Runtime
	f   *future
	gen uint64
}

// NewPromise creates an unresolved promise at priority p. The returned
// promise's Future can be stored, passed, and Touched like any other;
// touchers park (freeing their workers) until some goroutine resolves
// it. Called from outside task context, it draws on pool stripe 0; task
// code should prefer NewPromiseIn, which uses the current worker's
// stripe.
func NewPromise[T any](rt *Runtime, p Priority) Promise[T] {
	rt.outstanding.Add(1)
	f := rt.getFuture(nil, p)
	return Promise[T]{rt: rt, f: f, gen: f.gen.Load()}
}

// NewPromiseIn is NewPromise from task context: the promise's future is
// drawn from (and, after a TouchRelease, returned to) the current
// worker's pool stripe.
func NewPromiseIn[T any](c *Ctx, p Priority) Promise[T] {
	rt := c.t.rt
	rt.outstanding.Add(1)
	f := rt.getFuture(c.g, p)
	return Promise[T]{rt: rt, f: f, gen: f.gen.Load()}
}

// Valid reports whether the promise was actually created (the zero
// Promise is the "no promise here" sentinel for struct fields).
func (p Promise[T]) Valid() bool { return p.f != nil }

// Future returns the consumer-side handle.
func (p Promise[T]) Future() Future[T] { return Future[T]{f: p.f, gen: p.gen} }

// checkGen fails a resolution through a promise whose future was
// recycled (the toucher released it and the cell moved on to another
// incarnation) — only under Config.Debug, mirroring the handle-
// side check: without it a late Complete would silently resolve the
// pooled cell or another request's incarnation instead of panicking.
func (p Promise[T]) checkGen() {
	if p.rt.cfg.Debug {
		if cur := p.f.gen.Load(); cur != p.gen {
			panic(&StaleHandleError{Minted: p.gen, Current: cur})
		}
	}
}

// Complete resolves the promise with v, requeueing every parked toucher.
// It panics if the promise was already resolved.
func (p Promise[T]) Complete(v T) {
	p.checkGen()
	defer p.rt.taskDone()
	p.f.complete(v)
}

// Fail resolves the promise with an error; touchers re-panic it, so an
// IO failure propagates along join edges like a task panic. It panics if
// the promise was already resolved.
func (p Promise[T]) Fail(err error) {
	p.checkGen()
	defer p.rt.taskDone()
	p.f.fail(err)
}

// Resolved reports whether Complete or Fail has been called on THIS
// incarnation of the promise's future. Recycling counts as resolved: a
// future only reaches TouchRelease after its completion, so a bumped
// generation stamp means the promise's lifetime already ended. The
// stamp is re-checked after the done load because putFuture bumps the
// generation BEFORE clearing done — a done=false read from a recycled
// cell is always caught by the second check, so Resolved never reverts
// to false once the promise has completed. It must still not be used
// as a he-who-completes guard by a racing completer (use a caller-local
// flag for that); it is a point-in-time observation, not a claim.
func (p Promise[T]) Resolved() bool {
	f := p.f
	if f.gen.Load() != p.gen {
		return true
	}
	if !f.done.Load() {
		// done=false is trustworthy only if the cell still belongs to
		// this incarnation; re-check the stamp (bumped before the reset).
		return f.gen.Load() != p.gen
	}
	// A failed future reports done=true with err set; Resolved must see
	// it too (Done deliberately reports a failed future as not done).
	return true
}

// Completed returns an already-resolved future holding v — for IO layers
// whose fast path (buffered data, cache hit) has the value on hand and
// needs a Future only to keep one signature. It never parks a toucher
// and does not count as outstanding: touching it is the done fast path
// (one atomic load), with no wake machinery anywhere near it.
func Completed[T any](p Priority, v T) Future[T] {
	f := &future{prio: p, val: v}
	f.done.Store(true)
	return Future[T]{f: f}
}

// IO returns a future that completes with mk() after d elapses, without
// occupying a worker — the io_future of Section 4.1. The simulated I/O
// substrate (internal/simio) builds on this; real-socket IO in
// internal/serve uses NewPromise directly. The timer callback completes
// the promise like any other completer: a parked toucher is requeued
// and, if every worker is asleep, one is woken at once.
func IO[T any](rt *Runtime, p Priority, d time.Duration, mk func() T) Future[T] {
	pr := NewPromise[T](rt, p)
	time.AfterFunc(d, func() { pr.Complete(mk()) })
	return pr.Future()
}
