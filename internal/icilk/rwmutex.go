package icilk

import (
	"fmt"
	"sync/atomic"
)

// RWMutex state-word layout: the writer bit, a wait bit, and the reader
// count above them. The wait bit means "waiters (of either mode) are
// registered": it diverts every new reader and every release into the
// slow path, where the waiter lists are consulted under the internal
// lock — the one bit that lets the read fast path stay a single CAS
// while still guaranteeing no waiter is ever stranded.
const (
	rwWriter      int64 = 1 << 0
	rwWait        int64 = 1 << 1
	rwReaderShift       = 2
	rwReaderInc   int64 = 1 << rwReaderShift
)

func rwReaders(s int64) int64 { return s >> rwReaderShift }

// RWMutex is a scheduler-aware reader/writer lock with per-mode priority
// ceilings and priority inheritance into the writer. It is the
// primitive for read-mostly shared state — caches, session tables,
// admission counters — where a plain Mutex would serialize readers that
// could safely proceed in parallel.
//
// Ceilings: the read ceiling and the write ceiling bound the declared
// priorities allowed to acquire each mode, and the read ceiling must be
// at least the write ceiling. Readers are admitted up to and including
// the read ceiling; writers up to and including the write ceiling.
// The split encodes the read-mostly discipline directly: the
// highest-priority (interactive) tasks may read, while mutation is
// reserved to the lower classes that fill the cache — so the only
// blocking a top-priority task can experience is behind a writer the
// inheritance machinery will boost to its level.
//
// Inheritance: the write side has a single identifiable owner, so a
// reader or writer blocking behind a write holder raises that holder's
// effective priority exactly like a Mutex waiter does (counted in
// SchedStats.Inherits, re-leveled by the same duplicate-injection
// kick). The lock keeps its read holders as a count, not identities, so
// a writer blocked behind readers parks without boosting anyone; the
// ceiling discipline already guarantees those readers run at or below
// the read ceiling, and granting the writer happens the moment the last
// reader leaves.
//
// Fast paths: an uncontended RLock is one CAS on the state word and
// RUnlock one atomic add; an uncontended Lock/Unlock is one CAS each,
// as for Mutex. Blocked acquires of either mode park the task like an
// unresolved Touch (SchedStats.RWReadParks / RWWriteParks), freeing its
// worker.
//
// Grant policy: while a writer waits, newly arriving readers queue
// instead of joining the running read era, and the drain of a read era
// grants the highest-priority queued writer even when higher-priority
// readers are also queued — one bounded write section, the inversion
// window the priority-ceiling protocol accepts — while a write release
// grants by priority (a higher-priority reader queue beats the next
// writer). Reader waves and writers therefore alternate under
// contention; neither side starves, even with the read ceiling above
// the write ceiling.
//
// RWMutex is not reentrant in either mode, and it does not check read
// reentrancy: a task that RLocks while already holding a read lock can
// deadlock once a writer queues between the two acquires (the second
// RLock waits behind the writer, which waits on the first hold — the
// same restriction as sync.RWMutex). Acquiring the write lock while
// holding a read lock deadlocks the same way; RLock while holding the
// write lock panics. RUnlock must come from the task that took the read
// hold.
//
// Every hold is recorded on its task — the write hold in task.held,
// each read hold in task.rheld, whether it came through the fast path
// or a grant — so a task that panics while holding the lock releases
// all of it through the ordinary Unlock and RUnlock, and their grant
// passes, before its future fails.
type RWMutex struct {
	rceil Priority
	wceil Priority

	// state is the fast-path lock word; wowner identifies the write
	// holder (stored after the acquiring CAS, cleared before the
	// releasing one — readers of wowner tolerate a transient nil).
	state  atomic.Int64
	wowner atomic.Pointer[task]

	// waitq is the slow path: the internal lock mu, the reader and
	// writer waiter lists, and the block / hand-off protocol shared with
	// Mutex. Whenever rwWait is set, every acquire and release
	// serializes on mu, so the grant decisions below read a stable state
	// word.
	waitq
}

// NewRWMutex creates an RWMutex with the given per-mode ceilings. The
// read ceiling must be at least the write ceiling (readers are the
// higher-priority accessors of read-mostly state); the name identifies
// the lock in ceiling-violation errors and diagnostics.
func NewRWMutex(rt *Runtime, readCeiling, writeCeiling Priority, name string) *RWMutex {
	if readCeiling < writeCeiling {
		panic(fmt.Sprintf("icilk: NewRWMutex %q: read ceiling %d below write ceiling %d",
			name, readCeiling, writeCeiling))
	}
	m := &RWMutex{rceil: readCeiling, wceil: writeCeiling}
	m.waitq.init(rt, "rwmutex", name, m, &m.wowner)
	return m
}

// RLock acquires the lock in read mode: shared with other readers,
// exclusive against writers. A task above the read ceiling panics with a
// PriorityInversionError. When a writer is active or waiting, the reader
// parks (see the grant policy in the type comment).
func (m *RWMutex) RLock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.RLock outside task context")
	}
	t := c.t
	rt := t.rt
	if t.prio > m.rceil {
		rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: t.prio, Touched: m.rceil, Primitive: "rwmutex(read)", Name: m.name})
	}
	for {
		s := m.state.Load()
		if s&(rwWriter|rwWait) != 0 {
			m.rlockSlow(c, t, rt)
			break
		}
		if m.state.CompareAndSwap(s, s+rwReaderInc) {
			break
		}
	}
	m.recordAcquire(t)
	t.rheld = append(t.rheld, m)
}

// rlockSlow re-checks under the internal lock (the writer may have just
// released, or the wait bit may be stale), then queues behind the write
// holder. On return the read lock is held: either self-granted here, or
// counted into the state word by the granter before it requeued us.
func (m *RWMutex) rlockSlow(c *Ctx, t *task, rt *Runtime) {
	if m.wowner.Load() == t {
		panic("icilk: RWMutex.RLock by the current write holder")
	}
	m.mu.Lock()
	m.pinSlow()
	// Self-grant when no writer holds and none waits. (Waiting readers
	// cannot exist in that configuration — every grant that clears the
	// writer bit with no writers left drains the whole reader queue.)
	// With only writers *queued* (readers hold the lock), there is no one
	// to boost: the lock does not know its read holders.
	var holder *task
	for {
		s := m.state.Load()
		if s&rwWriter != 0 {
			holder = m.resolveHolder()
			break
		}
		if len(m.lists[qWrite]) > 0 {
			break
		}
		ns := s + rwReaderInc
		if len(m.lists[qRead]) == 0 {
			ns &^= rwWait
		}
		if m.state.CompareAndSwap(s, ns) {
			m.mu.Unlock()
			return
		}
	}
	if cyc := m.block(c, qRead, holder, &rt.stats.rwReadParks); cyc != nil {
		panic(cyc)
	}
}

// pinSlow sets rwWait, diverting every new reader and every release to
// the slow path, where they serialize on mu. Caller holds mu.
func (m *RWMutex) pinSlow() {
	for {
		s := m.state.Load()
		if s&rwWait != 0 || m.state.CompareAndSwap(s, s|rwWait) {
			return
		}
	}
}

// RUnlock releases a read hold the calling task took: it drops the
// task's record of the hold, then one atomic add on the state word —
// plus a grant pass when this was the last reader out and waiters are
// queued.
func (m *RWMutex) RUnlock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.RUnlock outside task context")
	}
	t := c.t
	i := len(t.rheld) - 1
	for i >= 0 && t.rheld[i] != m {
		i--
	}
	if i < 0 {
		panic("icilk: RWMutex.RUnlock by a task that holds no read lock on it")
	}
	t.rheld = append(t.rheld[:i], t.rheld[i+1:]...)
	if s := m.state.Add(-rwReaderInc); s&rwWait != 0 && rwReaders(s) == 0 {
		m.runlockSlow()
	}
}

// runlockSlow runs the grant pass after the last reader left with
// waiters queued. Everything is re-read under the internal lock: another
// reader may have been granted (or self-granted) in between, in which
// case there is nothing to do here.
func (m *RWMutex) runlockSlow() {
	m.mu.Lock()
	s := m.state.Load()
	if s&rwWriter != 0 || rwReaders(s) > 0 || s&rwWait == 0 {
		m.mu.Unlock()
		return
	}
	// A read era just drained: prefer a queued writer even when queued
	// readers outrank it. Without this, a continuous stream of readers
	// above the write ceiling (the proxy cache's exact configuration:
	// event-loop lookups over fetcher fills) would win every grant and
	// the write would never land. One write section is the bounded
	// inversion the ceiling protocol accepts.
	m.grantLocked(true)
}

// Lock acquires the lock in write mode: exclusive against readers and
// writers. A task above the write ceiling panics with a
// PriorityInversionError.
func (m *RWMutex) Lock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.Lock outside task context")
	}
	t := c.t
	rt := t.rt
	if t.prio > m.wceil {
		rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: t.prio, Touched: m.wceil, Primitive: "rwmutex(write)", Name: m.name})
	}
	// Fast path: completely free — one CAS.
	if m.state.CompareAndSwap(0, rwWriter) {
		m.wowner.Store(t)
		m.acquired(t)
		return
	}
	m.wlockSlow(c, t, rt)
}

// wlockSlow re-checks under the internal lock, then queues behind the
// write holder, or behind the read era (the lock does not know its read
// holders: there is no one to boost). On resume the write lock is held
// and wowner already points at this task.
func (m *RWMutex) wlockSlow(c *Ctx, t *task, rt *Runtime) {
	if m.wowner.Load() == t {
		panic("icilk: RWMutex is not reentrant: Lock by current write holder")
	}
	m.mu.Lock()
	m.pinSlow()
	// Self-grant when fully free. Readers can still drain concurrently
	// (their RUnlock is a plain add), so CAS until the picture is stable:
	// the last reader out will find rwWait set and serialize on mu.
	var holder *task
	for {
		s := m.state.Load()
		if s&rwWriter != 0 {
			holder = m.resolveHolder()
			break
		}
		if rwReaders(s) > 0 {
			break
		}
		if !m.empty() {
			// Fully free but waiters are queued: a granter is en route
			// (the releaser that freed the lock serializes on m.mu behind
			// us). Self-granting here would barge past waiters that may
			// outrank us; queue instead and let the grant go by priority.
			break
		}
		if m.state.CompareAndSwap(s, (s|rwWriter)&^rwWait) {
			m.wowner.Store(t)
			m.mu.Unlock()
			m.acquired(t)
			return
		}
	}
	if cyc := m.block(c, qWrite, holder, &rt.stats.rwWriteParks); cyc != nil {
		panic(cyc)
	}
	m.acquired(t)
}

// Unlock releases the write lock, recomputes the holder's inherited
// boost, and grants the lock to the highest-priority waiting side.
func (m *RWMutex) Unlock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.Unlock outside task context")
	}
	t := c.t
	if m.wowner.Load() != t {
		panic("icilk: RWMutex.Unlock by a task that does not hold the write lock")
	}
	// Fast path: no waiters — clear the owner, then one CAS (the exact
	// match fails if any waiter has registered).
	m.wowner.Store(nil)
	if m.state.CompareAndSwap(rwWriter, 0) {
		m.released(t)
		return
	}
	m.wowner.Store(t)

	m.mu.Lock()
	m.wowner.Store(nil)
	m.grantLocked(false)
	m.released(t)
}

// grantLocked hands a fully released lock (no writer, no readers) to a
// waiting side: the highest enqueue-time priority, writers winning ties
// — or, with preferWriter set (the drain of a read era), the best
// writer regardless of queued readers' priority, so alternating waves
// keep writers from starving under a saturating higher-priority reader
// stream. A reader grant releases the entire reader queue at once (they
// can all run concurrently anyway, and waking them together avoids a
// grant pass per reader). Requires m.mu held and rwWait set; releases
// m.mu. While rwWait is set and the lock is free, only mu-holders
// mutate the state word, so plain stores suffice.
func (m *RWMutex) grantLocked(preferWriter bool) {
	rt := m.rt
	bestW, bestR := m.headPrio(qWrite), m.headPrio(qRead)
	switch {
	case bestW >= 0 && (preferWriter || bestW >= bestR):
		next := m.pop(qWrite)
		// A drain-preferred writer can be outranked by readers still
		// queued behind it: inherit their level for its one section, or
		// the "bounded" inversion window is no bound at all — the
		// unboosted writer would sit in its low-level run queue behind
		// any backlog while the high-priority readers stay parked. The
		// requeue below routes on effPrio, so the boost lands it at the
		// readers' level immediately; no re-injection kick is needed.
		if rt.cfg.inherit && bestR > next.effPrio() && next.raiseBoost(bestR) {
			rt.stats.inherits.Add(1)
		}
		ns := rwWriter
		if !m.empty() {
			ns |= rwWait
		}
		m.wowner.Store(next)
		m.state.Store(ns)
		m.mu.Unlock()
		rt.requeue(next)
	case bestR >= 0:
		granted := m.popAll(qRead)
		ns := int64(len(granted)) * rwReaderInc
		if !m.empty() {
			ns |= rwWait
		}
		m.state.Store(ns)
		m.mu.Unlock()
		for _, r := range granted {
			rt.requeue(r)
		}
	default:
		// No waiters after all (a registrant self-granted and the wait
		// bit went stale): clear it.
		m.state.Store(0)
		m.mu.Unlock()
	}
}
