package icilk

import "sync/atomic"

// This file is the runtime half of the paper's "and state": mutable
// shared state whose priority discipline the scheduler understands. The
// λ4i type system (Figure 12, modeled statically in
// internal/machine/statetyping.go) assigns every piece of state a
// priority and rules out a high-priority thread depending on state that
// lower-priority threads may be mid-way through; Ref and Mutex enforce
// the same contract dynamically, in the style of Touch's inversion check,
// and add the remedy the type system cannot express: priority
// inheritance, which re-levels a lock holder while a more urgent task is
// blocked behind it.
//
// Both primitives are built around lock-free fast paths: the uncontended
// case pays only atomics (the Chase–Lev discipline the deques already
// use — publish with a CAS, fall back to heavier synchronization only
// when a race is actually in progress), so the ceilinged primitives the
// paper's discipline pushes every app onto cost about what the plain Go
// primitives they replaced did. Only a contended acquire or a handoff
// touches the slow path's internal lock.

// Ref is an atomic cell of type T carrying a priority ceiling: the
// highest declared task priority allowed to access it. Accessing a Ref
// from above its ceiling panics with a PriorityInversionError — the
// dynamic analogue of dereferencing a ref the λ4i state typing forbids
// at the current priority. Ref operations never block, park, or lock:
// Load is an atomic pointer load, Store an atomic swap, and Update a CAS
// retry loop — so Ref is the primitive for counters, flags, and small
// shared values; state with real critical sections belongs behind a
// Mutex.
type Ref[T any] struct {
	rt      *Runtime
	ceiling Priority
	p       atomic.Pointer[T]
}

// NewRef creates a Ref with the given ceiling and initial value.
func NewRef[T any](rt *Runtime, ceiling Priority, v T) *Ref[T] {
	r := &Ref[T]{rt: rt, ceiling: ceiling}
	r.p.Store(&v)
	return r
}

// check enforces the ceiling for task-context access. A nil Ctx marks
// access from outside the runtime (harness goroutines, diagnostics),
// which has no priority to violate.
func (r *Ref[T]) check(c *Ctx) {
	if c == nil {
		return
	}
	if c.t.prio > r.ceiling {
		r.rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: c.t.prio, Touched: r.ceiling, Primitive: "ref"})
	}
}

// Load returns the current value: a ceiling check plus one atomic load.
func (r *Ref[T]) Load(c *Ctx) T {
	r.check(c)
	return *r.p.Load()
}

// Store replaces the value with one atomic swap.
func (r *Ref[T]) Store(c *Ctx, v T) {
	r.check(c)
	r.p.Store(&v)
}

// Update atomically applies fn to the value and returns the new value.
// The update is a CAS retry loop, so fn may run more than once under
// contention: it must be pure (no side effects, no blocking, no spawns,
// no touches).
func (r *Ref[T]) Update(c *Ctx, fn func(T) T) T {
	r.check(c)
	for {
		old := r.p.Load()
		v := fn(*old)
		if r.p.CompareAndSwap(old, &v) {
			return v
		}
	}
}

// StripedCounter is a ceilinged int64 accumulator for write-hot,
// read-rare counters (request tallies, hit/miss counts): Add lands on a
// per-worker, cache-line-padded stripe indexed by the caller's worker
// id, so concurrent bumpers on different cores never contend on one
// line; Load sums the stripes. The tradeoff is deliberate — Load costs
// a short scan and is not a linearizable snapshot (stripes are read one
// by one), which is exactly the contract stats-page counters need and a
// sequenced counter does not get to relax. Like Ref, it never blocks,
// parks or allocates, and a nil Ctx marks external access (stripe 0).
type StripedCounter struct {
	rt      *Runtime
	ceiling Priority
	stripes []counter
	mask    uint32
}

// stripes is the stripe count of StripedCounter and the shard count of
// ShardedMap: one per worker, rounded up to a power of two so a mask
// picks the stripe, capped at 32 so a huge worker count cannot balloon
// per-structure memory.
func stripes(workers int) int {
	n := 1
	for n < workers && n < 32 {
		n <<= 1
	}
	return n
}

// NewStripedCounter creates a zeroed StripedCounter with the given
// ceiling and stripes(workers) stripes.
func NewStripedCounter(rt *Runtime, ceiling Priority) *StripedCounter {
	n := stripes(rt.cfg.Workers)
	return &StripedCounter{rt: rt, ceiling: ceiling,
		stripes: make([]counter, n), mask: uint32(n - 1)}
}

func (k *StripedCounter) check(c *Ctx) {
	if c == nil {
		return
	}
	if c.t.prio > k.ceiling {
		k.rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: c.t.prio, Touched: k.ceiling, Primitive: "counter"})
	}
}

// Add adds d on the calling worker's stripe.
func (k *StripedCounter) Add(c *Ctx, d int64) {
	k.check(c)
	i := uint32(0)
	if c != nil {
		i = uint32(c.WorkerID()) & k.mask
	}
	k.stripes[i].Add(d)
}

// Load sums the stripes. Concurrent Adds may or may not be included;
// the value is exact once bumpers quiesce.
func (k *StripedCounter) Load(c *Ctx) int64 {
	k.check(c)
	var n int64
	for i := range k.stripes {
		n += k.stripes[i].Load()
	}
	return n
}

// Mutex state-word bits. The word carries the locked bit and the count
// of registered waiters; because a waiter can only register its count
// against a locked word (the increment CAS re-reads the locked bit), a
// release atomically observes whether anyone is — or is committing to —
// waiting, which is what lets the uncontended Unlock be a single CAS
// with no waiter-list lock.
const (
	mutexLocked    int32 = 1 << 0
	mutexWaiterInc int32 = 1 << 1
)

// Mutex is a scheduler-aware mutual-exclusion lock with a priority
// ceiling and priority inheritance.
//
// Ceiling: the highest declared task priority allowed to acquire the
// lock. Locking from above the ceiling panics with a
// PriorityInversionError, mirroring Touch: state only ever held by tasks at or below the ceiling can make
// a task above it wait, which is exactly the hazard the λ4i state
// typing rules out.
//
// Inheritance: when a task blocks on a held Mutex, the holder's
// effective priority is raised to the waiter's (unless
// Config.DisableInheritance). The boost re-levels the holder everywhere
// placement decisions are made — a holder parked on IO or a future is
// requeued at the waiter's level when it completes, a holder already
// sitting in a run queue is re-injected at the waiter's level (a
// duplicate entry; the dispatch claim on the task keeps it from running
// twice), and tasks the holder spawns while boosted inherit the boost
// as a floor. Unlock recomputes the boost from the locks the holder
// still holds, hands the Mutex to the highest-priority waiter, and
// requeues it.
//
// Fast path: the lock word is a CAS-published state machine. An
// uncontended Lock is one CAS on the state word (plus an owner-pointer
// store); an uncontended Unlock is the mirror image; TryLock is a single
// CAS. Everything a contended acquire or a hand-off does beyond the
// state word — queueing, inheritance, the deadlock walk, parking — is
// the embedded waitq's (waitq.go), shared with RWMutex; its internal
// sync.Mutex is never touched while the Mutex is free or held without
// waiters.
//
// Lock and Unlock must be called from task context (a non-nil Ctx): a
// blocked Lock parks the task exactly like an unresolved Touch, freeing
// its worker. External goroutines coordinate with the runtime through
// Promise, not Mutex. A task that panics while holding the Mutex
// releases it — through the same hand-off as Unlock — before its future
// fails; the state it guarded is left as the panic found it.
type Mutex struct {
	ceiling Priority

	// state is the fast-path lock word: mutexLocked plus a registered-
	// waiter count. owner identifies the holding task (for inheritance,
	// reentrancy detection, and handoff); it is stored after the state
	// CAS acquires and cleared before the state CAS releases, so a
	// reader of owner may transiently see nil while the lock changes
	// hands — every owner reader tolerates that.
	state atomic.Int32
	owner atomic.Pointer[task]

	// waitq is the slow path: the internal lock, the waiter list and the
	// block / hand-off protocol. It sits after the words the fast paths
	// touch.
	waitq
}

// NewMutex creates a Mutex with the given ceiling. The name identifies
// the lock in ceiling-violation errors and diagnostics.
func NewMutex(rt *Runtime, ceiling Priority, name string) *Mutex {
	m := &Mutex{ceiling: ceiling}
	m.waitq.init(rt, "mutex", name, m, &m.owner)
	return m
}

// Lock acquires the Mutex, parking the task (and freeing its worker)
// while another task holds it. Acquiring from a task whose declared
// priority exceeds the ceiling panics with a PriorityInversionError.
func (m *Mutex) Lock(c *Ctx) {
	if c == nil {
		panic("icilk: Mutex.Lock outside task context")
	}
	t := c.t
	rt := t.rt
	if t.prio > m.ceiling {
		rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: t.prio, Touched: m.ceiling, Primitive: "mutex", Name: m.name})
	}
	// Fast path: free, no registered waiters — one CAS.
	if m.state.CompareAndSwap(0, mutexLocked) {
		m.owner.Store(t)
		m.acquired(t)
		return
	}
	m.lockSlow(c, t, rt)
}

// lockSlow is the contended acquire: register a waiter count against the
// locked word, then queue behind the holder.
func (m *Mutex) lockSlow(c *Ctx, t *task, rt *Runtime) {
	for {
		s := m.state.Load()
		if s&mutexLocked == 0 {
			// Released since the fast path failed: take it. The waiter
			// count (other registrants) rides along unchanged.
			if m.state.CompareAndSwap(s, s|mutexLocked) {
				m.owner.Store(t)
				m.acquired(t)
				return
			}
			continue
		}
		if m.owner.Load() == t {
			panic("icilk: Mutex is not reentrant: Lock by current holder")
		}
		// Register intent to wait. The CAS only succeeds against a word
		// that is still locked, so a concurrent Unlock either sees the
		// new count (and takes the slow handoff path, which serializes
		// on m.mu below) or already released (and the next iteration of
		// this loop acquires).
		if m.state.CompareAndSwap(s, s+mutexWaiterInc) {
			break
		}
	}

	m.mu.Lock()
	// Re-check under m.mu: the holder may have released between our
	// registration and here (its slow-path Unlock found the list empty
	// and dropped the locked bit, leaving our count in place). While the
	// word stays locked, our count pins every Unlock to the slow path,
	// which serializes on m.mu — so the holder cannot complete a release
	// until we are enqueued, and the boost block applies cannot land on
	// a stale holder.
	for {
		s := m.state.Load()
		if s&mutexLocked != 0 {
			break
		}
		if m.state.CompareAndSwap(s, (s-mutexWaiterInc)|mutexLocked) {
			m.owner.Store(t)
			m.mu.Unlock()
			m.acquired(t)
			return
		}
	}
	if cyc := m.block(c, qWrite, m.resolveHolder(), &rt.stats.mutexParks); cyc != nil {
		m.state.Add(-mutexWaiterInc) // deregister: we will not wait
		panic(cyc)
	}
	// Resumed: Unlock handed us the Mutex (m.owner == t already).
	m.acquired(t)
}

// Unlock releases the Mutex: the holder's inherited boost is recomputed
// from the locks it still holds, and the Mutex is handed directly to the
// highest-priority waiter (FIFO among equals), which is requeued at its
// own level. Unlock panics if the calling task does not hold the Mutex.
func (m *Mutex) Unlock(c *Ctx) {
	if c == nil {
		panic("icilk: Mutex.Unlock outside task context")
	}
	t := c.t
	if m.owner.Load() != t {
		panic("icilk: Mutex.Unlock by a task that does not hold it")
	}
	// Fast path: no registered waiters — clear the owner, then one CAS.
	// The owner must go nil before the release CAS (an acquirer stores
	// its own owner only after winning that CAS, so the stores cannot
	// cross); on CAS failure we still hold the lock — restore the owner
	// and hand off.
	m.owner.Store(nil)
	if m.state.CompareAndSwap(mutexLocked, 0) {
		m.released(t)
		return
	}
	m.owner.Store(t)
	m.unlockSlow(t)
}

// unlockSlow hands the Mutex to the head of the waiter list, or — when
// the registered waiters are still en route to the list — releases the
// locked bit and lets their under-mu re-check self-acquire.
func (m *Mutex) unlockSlow(t *task) {
	m.mu.Lock()
	var next *task
	if !m.empty() {
		// Ownership transfers: the locked bit stays set, the popped
		// waiter's count comes off, and the owner moves directly to the
		// successor.
		next = m.pop(qWrite)
		m.state.Add(-mutexWaiterInc)
		m.owner.Store(next)
	} else {
		m.owner.Store(nil)
		for {
			s := m.state.Load()
			if m.state.CompareAndSwap(s, s&^mutexLocked) {
				break
			}
		}
	}
	m.mu.Unlock()
	m.released(t)
	if next != nil {
		m.rt.requeue(next)
	}
}

// TryLock acquires the Mutex if it is free, without blocking and without
// ceiling checking (a non-blocking attempt cannot make a higher-priority
// task wait on lower-priority work). It is a single CAS.
func (m *Mutex) TryLock(c *Ctx) bool {
	if c == nil {
		panic("icilk: Mutex.TryLock outside task context")
	}
	t := c.t
	if !m.state.CompareAndSwap(0, mutexLocked) {
		return false
	}
	m.owner.Store(t)
	m.acquired(t)
	return true
}
