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
// code path in this package sleeps or polls.
//
// Scheduling is two-level (Section 4.3): each priority level has its own
// work-stealing scheduler (per-worker lock-free Chase-Lev deques plus a
// lock-free injection queue), and a master scheduler reassigns workers to
// levels every quantum using A-STEAL-style desire feedback: a level whose
// utilization beat the threshold and whose desire was satisfied
// multiplies its desire by γ; an underutilized level divides it by γ.
// Cores are granted in priority order. A worker's assignment is a floor:
// at every task boundary, and at Checkpoint inside a long task, it takes
// the highest level with ready work at or above that floor, so a
// higher-priority task never waits out a quantum behind lower-priority
// work. With Prioritize=false the runtime degenerates into the Cilk-F
// baseline: one priority-oblivious work-stealing pool.
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
// (Config.DetectDeadlocks), lend the holder its priority, queue by
// priority, park — and what a hand-off does on the other side exist
// once, in the waitq both embed (waitq.go). A grant retracts the
// grantee's edge before publishing it as holder, so a task is never
// owner of the lock it is recorded as waiting on; a task that panics
// holding locks releases them through the same hand-off before its
// future fails.
//
// # External IO
//
// Two primitives connect the runtime to the world outside it. IO builds
// a timer-backed future (simulated devices, internal/simio). NewPromise
// hands out an unresolved future plus the right to complete it from any
// goroutine — the hook that real device drivers use: internal/serve's
// reader and fallback-writer goroutines complete request and write
// promises on socket events, so tasks touching them park and free their
// workers for exactly as long as the network takes. Both paths reuse
// the task completion machinery — requeue the waiters and, if a worker
// is parked, wake it in the same call; there is no deferred or batched
// wake — so latency hiding is identical for simulated and real IO.
//
// See ARCHITECTURE.md at the repository root for the end-to-end
// scheduler design, including the task lifecycle diagram, the park/wake
// sequence protocol, and the steal order across priority levels.
package icilk
