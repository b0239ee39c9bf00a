package icilk

import "time"

// Promise is an externally completed future — the hook a device driver
// uses to inject a real-world completion into the runtime: whatever
// goroutine observes the event calls Complete. It reuses the task
// completion path — waiters are requeued at their own levels and, if a
// worker is parked, it is woken before Complete returns; under load the
// wake is one atomic add. Nothing polls the promise. A completion that
// is due at a known time needs no promise: IO and AfterFunc are entries
// of the runtime's clock.
//
// A Promise counts as outstanding from creation until Complete or Fail,
// so Runtime.WaitIdle waits for in-flight IO exactly as it waits for
// tasks. Complete and Fail may be called from any goroutine, but only
// once between them; a second resolution panics, matching the
// single-assignment semantics of futures. A Promise is a small value
// (like Future); the zero Promise is invalid.
type Promise[T any] struct {
	rt *Runtime
	f  *future
}

// NewPromise creates an unresolved promise at priority p. The returned
// promise's Future can be stored, passed, and Touched like any other;
// touchers park (freeing their workers) until some goroutine resolves
// it.
func NewPromise[T any](rt *Runtime, p Priority) Promise[T] {
	rt.outstanding.Add(1)
	return Promise[T]{rt: rt, f: &future{prio: p}}
}

// NewPromiseIn is NewPromise from task context, on the task's runtime.
func NewPromiseIn[T any](c *Ctx, p Priority) Promise[T] {
	return NewPromise[T](c.t.rt, p)
}

// Future returns the consumer-side handle.
func (p Promise[T]) Future() Future[T] { return Future[T]{f: p.f} }

// Complete resolves the promise with v, requeueing every parked toucher.
// It panics if the promise was already resolved.
func (p Promise[T]) Complete(v T) {
	defer p.rt.taskDone()
	p.f.complete(v)
}

// Fail resolves the promise with an error; touchers re-panic it, so an
// IO failure propagates along join edges like a task panic. It panics if
// the promise was already resolved.
func (p Promise[T]) Fail(err error) {
	defer p.rt.taskDone()
	p.f.fail(err)
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
// substrate (internal/simio) builds on it. The completion is an
// AfterFunc entry of the runtime's clock (clock.go): a worker fires it
// at its next task boundary or Checkpoint once d has passed, or the
// clock's fallback timer does when every worker is parked, and a parked
// toucher is requeued like any other waiter. Until it fires the future
// counts as outstanding, so WaitIdle waits for it. mk runs on whichever
// goroutine fires the entry, so it must not block; a panic in mk fails
// this future and nothing else.
func IO[T any](rt *Runtime, p Priority, d time.Duration, mk func() T) Future[T] {
	f := &future{prio: p}
	rt.arm(d, func() { f.finish(ioResult(mk)) })
	return Future[T]{f: f}
}

// ioResult runs an IO's mk, turning a panic into the future's error.
func ioResult[T any](mk func() T) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError("IO result", r)
		}
	}()
	return mk(), nil
}
