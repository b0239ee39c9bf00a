// Package icilk is a Go reimagining of I-Cilk (Muller et al., PLDI 2020,
// Section 4): a task-parallel runtime for interactive parallel
// applications with prioritized futures.
//
// The runtime is event-driven end to end. A spawned task (Go — the
// paper's fcreate) is a bare closure that the scheduling worker runs
// inline on its own goroutine; only when a task first blocks on an
// unresolved Touch (ftouch) is it promoted to a fiber — the goroutine
// hands its worker identity to a fresh runner and parks, hiding latency
// exactly as I-Cilk's io_future does. Completed futures push their
// waiters straight back into the run queues and wake parked workers; no
// code path in this package sleeps, and the only thing a worker checks
// between tasks is whether the clock's earliest deadline has passed
// (one atomic load when nothing is armed).
//
// Scheduling is prompt and greedy (Section 4.3): each priority level has
// its own work-stealing scheduler (per-worker lock-free Chase-Lev deques
// plus a lock-free injection queue), and at every task boundary, and at
// Checkpoint inside a long task, a worker takes the highest level with
// ready work. A higher-priority task never waits behind lower-priority
// work — the prompt schedules Theorem 2.3's bound is stated for — and no
// worker idles while any level has work. I-Cilk adds a master that
// reassigns workers to levels every quantum by A-STEAL desire feedback;
// this runtime has none (README's paper table records the measured
// comparison). With Prioritize=false the runtime degenerates into the
// Cilk-F baseline: one priority-oblivious work-stealing pool.
//
// # Shared state
//
// Ref, Mutex, and RWMutex are the runtime half of the paper's "and
// state": shared mutable state carrying priority ceilings the scheduler
// understands. Accessing any of them from a task whose declared
// priority exceeds the ceiling (per mode, for RWMutex) is detected
// dynamically (a PriorityInversionError, like Touch's check), and the
// locks apply priority inheritance: a holder blocked ahead of a more
// urgent waiter is re-leveled to the waiter's priority until it
// unlocks, so critical sections cannot smuggle the priority inversions
// the λ4i state typing (Fig. 12) rules out. All three are lock-free on
// the uncontended path — Ref is an atomic cell, and an uncontended
// Lock/Unlock/TryLock/RLock is a single CAS — so the ceilinged
// primitives cost about what the plain Go primitives they replace do.
//
// A lock is a state word plus a wait queue. Mutex and RWMutex each keep
// their own word, fast paths and grant policy; what a contended acquire
// does — publish the blocked-on edge, walk it for a deadlock
// (Config.Debug), lend the holder its priority, queue by priority,
// park — and what a hand-off does on the other side exist
// once, in the waitq both embed (waitq.go). A grant retracts the
// grantee's edge before publishing it as holder, so a task is never
// owner of the lock it is recorded as waiting on; a task that panics
// holding locks releases them through the same hand-off before its
// future fails.
//
// Config.Debug is the one debug switch: it turns on the deadlock walk
// and the lock-order recorder (LockOrderViolations reports AB/BA
// orderings even on runs that never deadlocked). Tests run with it on
// and assert an empty LockOrderViolations report from their cleanup.
//
// Futures are never recycled: Spawn, Go and NewPromise allocate a
// fresh cell, and a Future or Handle is one pointer to it, so any
// number of tasks may hold, store and touch it any number of times —
// the first-class thread handles of λ4i.
//
// # External IO
//
// Two primitives connect the runtime to the world outside it.
// Runtime.AfterFunc arms a callback on the runtime's clock: the workers
// fire due entries at their task boundaries and at Checkpoint, and one
// fallback Go timer covers a runtime whose workers are all parked. The
// callback runs outside any task, like a device completion. IO is an
// AfterFunc whose callback resolves a future with a simulated device's
// result (internal/simio), and internal/serve arms one per deadlined
// request to answer it if its handler is late. NewPromise hands out an
// unresolved future plus the right to complete it from any goroutine —
// the hook for a device whose completion time nobody knows in advance:
// tasks touching it park and free their workers for exactly as long as
// the device takes. Both paths reuse the task completion machinery —
// requeue the waiters and, if a worker is parked, wake it in the same
// call; there is no deferred or batched wake — so latency hiding is
// identical for simulated and real IO.
//
// See ARCHITECTURE.md at the repository root for the end-to-end
// scheduler design, including the task lifecycle diagram, the park/wake
// sequence protocol, and the steal order across priority levels.
package icilk
