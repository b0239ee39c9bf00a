package icilk

import (
	"fmt"
	"time"
)

// DeadlineError is the failure a future resolves with when a FailAfter
// timer fires before the producer completes it. Touchers re-panic it
// like any future failure; request-scoped code recovers it and turns it
// into a timeout response.
type DeadlineError struct {
	// After is the deadline that expired.
	After time.Duration
	// Prio is the priority of the future that timed out.
	Prio Priority
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("icilk: future (priority %d) missed its %v deadline", e.Prio, e.After)
}

// tryResolve is the shared body of the Try* resolutions: resolve the
// promise if it is still unresolved, and only then retire its
// outstanding count. Unlike Complete/Fail, losing the race is not an
// error — the loser simply reports false.
func (p Promise[T]) tryResolve(v any, err error) bool {
	if !p.f.tryFinish(v, err) {
		return false
	}
	p.rt.taskDone()
	return true
}

// TryComplete resolves the promise with v if it is still unresolved,
// reporting whether this call resolved it. It is the producer's half of
// a completion race (against a FailAfter timer or a competing
// producer): exactly one racer returns true, and only that racer's value
// is delivered.
func (p Promise[T]) TryComplete(v T) bool { return p.tryResolve(v, nil) }

// TryFail resolves the promise with err if it is still unresolved,
// reporting whether this call resolved it.
func (p Promise[T]) TryFail(err error) bool { return p.tryResolve(nil, err) }

// FailAfter arms a deadline on the promise: if d elapses before the
// promise is resolved, the future fails with a *DeadlineError and every
// parked toucher is resumed (re-panicking the error), exactly as a
// producer's TryFail would. The returned cancel stops the timer; calling
// it after a TryComplete win is the cheap way to avoid a pending timer
// holding the promise alive, but is never required for correctness — a
// late firing loses the tryFinish race and does nothing.
//
// FailAfter must be armed by the promise's creator before the future is
// shared; it does not cancel the producer's work. A producer that keeps
// computing after the deadline simply finds TryComplete returning false
// and discards its value.
func (p Promise[T]) FailAfter(d time.Duration) (cancel func()) {
	derr := &DeadlineError{After: d, Prio: p.f.prio}
	t := time.AfterFunc(d, func() { p.TryFail(derr) })
	return func() { t.Stop() }
}
