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

// BRAVO slot parameters: at most rwSlotMax reader slots per lock (one
// cache line each), and rwRearmAfter centralized reads after a
// revocation before the slot fast path is re-enabled — the cooldown
// that keeps a write-heavy phase from paying a revocation sweep per
// write.
const (
	rwSlotMax    = 32
	rwRearmAfter = 64
)

// rwslot is one distributed reader-count slot, padded to a cache line
// so readers hashed to different slots never contend on one word.
type rwslot struct {
	n atomic.Int64
	_ [56]byte
}

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
// kick). Read holders are anonymous — only a count, no identities — so
// a writer blocked behind readers parks without boosting anyone; the
// ceiling discipline already guarantees those readers run at or below
// the read ceiling, and granting the writer happens the moment the last
// reader leaves.
//
// Fast paths: while the lock is read-biased (the default), an
// uncontended RLock publishes into a per-worker slot array (hashed by
// worker id) instead of CASing the shared state word — BRAVO-style
// distributed reader counting, so readers on different cores touch
// different cache lines and the read path scales with cores instead of
// serializing on one word. A writer revokes the bias (set the wait bit,
// clear the bias flag, sweep the slots) and readers fall back to the
// centralized word — one CAS — until rwRearmAfter centralized reads
// re-enable the bias. RUnlock is one atomic add (or slot decrement); an
// uncontended Lock/Unlock is one CAS each, as for Mutex. Blocked
// acquires of either mode park the task like an unresolved Touch
// (SchedStats.RWReadParks / RWWriteParks), freeing its worker.
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
// RWMutex is not reentrant in either mode, and read holds are
// invisible to it (a count, not identities): a task that RLocks while
// already holding a read lock can deadlock once a writer queues between
// the two acquires (the second RLock waits behind the writer, which
// waits on the first hold — the same restriction as sync.RWMutex, but
// undetectable here). Acquiring the write lock while holding a read
// lock deadlocks the same way; RLock while holding the write lock
// panics.
//
// A task that panics while holding the lock releases what the lock can
// attribute to it before its future fails: the write hold, through the
// ordinary grant pass, and read holds published through a reader slot
// (the task records those itself). A read hold taken on the centralized
// word is anonymous — one more in a count — and stays held: a reader
// that can panic under revoked bias can still strand the writers behind
// it.
type RWMutex struct {
	rceil Priority
	wceil Priority

	// state is the fast-path lock word; wowner identifies the write
	// holder (stored after the acquiring CAS, cleared before the
	// releasing one — readers of wowner tolerate a transient nil).
	state  atomic.Int64
	wowner atomic.Pointer[task]

	// BRAVO distributed reader counting. While rbias is set, RLock
	// publishes a read hold by incrementing slots[workerID&slotMask] and
	// re-checking the state word and the bias; the centralized CAS is the
	// fallback. A writer that needs exclusivity sets rwWait FIRST, then
	// clears rbias, then sweeps the slots — the ordering that makes a
	// racing slot reader either visible to the sweep or bounced by its
	// own post-increment recheck. rearm counts down centralized reads
	// until the bias is re-enabled. noSlots disables the whole slot path
	// (the lock experiment's ablation knob); it must be set before the
	// lock is shared.
	slots    []rwslot
	slotMask uint32
	rbias    atomic.Bool
	rearm    atomic.Int32
	noSlots  bool

	// waitq is the slow path: the internal lock mu, the reader and
	// writer waiter lists, and the block / hand-off protocol shared with
	// Mutex. Whenever rwWait is set, every acquire and release
	// serializes on mu, so the grant decisions below read a stable state
	// word.
	waitq

	// drainW (under mu) is a writer that won the acquiring CAS during a
	// bias-enable race and is parked waiting for the slot readers it
	// raced with to drain; the last slot reader out requeues it.
	drainW *task
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
	n := 1
	for n < rt.cfg.Workers && n < rwSlotMax {
		n <<= 1
	}
	m := &RWMutex{rceil: readCeiling, wceil: writeCeiling,
		slots: make([]rwslot, n), slotMask: uint32(n - 1)}
	m.waitq.init(rt, "rwmutex", name, m, &m.wowner)
	m.rbias.Store(true)
	return m
}

// SetReaderSlots enables or disables the BRAVO slot fast path. With it
// off, every reader uses the centralized CAS on the state word — the
// pre-BRAVO behavior the lock experiment compares against. Must be
// called before the lock is shared between tasks.
func (m *RWMutex) SetReaderSlots(on bool) {
	m.noSlots = !on
	m.rbias.Store(on)
}

// ReadCeiling returns the ceiling checked against readers.
func (m *RWMutex) ReadCeiling() Priority { return m.rceil }

// WriteCeiling returns the ceiling checked against writers.
func (m *RWMutex) WriteCeiling() Priority { return m.wceil }

// RLock acquires the lock in read mode: shared with other readers,
// exclusive against writers. A task above the read ceiling panics with a
// PriorityInversionError when inversion checking is enabled. When a
// writer is active or waiting, the reader parks (see the grant policy
// in the type comment).
func (m *RWMutex) RLock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.RLock outside task context")
	}
	t := c.t
	rt := t.rt
	if rt.cfg.checkInversions && t.prio > m.rceil {
		rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: t.prio, Touched: m.rceil, Primitive: "rwmutex(read)", Name: m.name})
	}
	// BRAVO fast path: publish into this worker's slot, then re-check.
	// Entry is only valid if the state word is still clean AND the bias
	// is still set after the increment — the state check orders us
	// against a writer mid-revocation (it dirties the word before
	// sweeping, so either our increment is visible to its sweep or we
	// see the dirty word here and undo), and the bias check closes the
	// window where a completed revocation-plus-release left a clean word
	// with the bias off (a writer's fast path trusts bias-off to mean
	// the slots are empty).
	if m.rbias.Load() {
		if w := c.g.w; w != nil {
			sl := &m.slots[uint32(w.id)&m.slotMask]
			sl.n.Add(1)
			if m.state.Load()&(rwWriter|rwWait) == 0 && m.rbias.Load() {
				t.rslots = append(t.rslots, rslotHold{m: m, sl: sl})
				m.recordAcquire(t)
				return
			}
			m.slotRelease(sl) // undo; wakes a drain-waiting writer if we were last
		}
	}
	for {
		s := m.state.Load()
		if s&(rwWriter|rwWait) != 0 {
			m.rlockSlow(c, t, rt)
			return
		}
		if m.state.CompareAndSwap(s, s+rwReaderInc) {
			m.maybeRearm()
			m.recordAcquire(t)
			return
		}
	}
}

// maybeRearm re-enables the slot fast path after rwRearmAfter
// centralized reads found the word write-free — BRAVO's cooldown, by
// count rather than clock. Called only after a successful centralized
// read CAS (so the word was clean a moment ago); turning the bias on
// while a writer is active or arriving is harmless, because slot entry
// re-checks the state word and the writer fast path re-checks the bias.
func (m *RWMutex) maybeRearm() {
	if m.noSlots || m.rbias.Load() {
		return
	}
	if m.rearm.Add(-1) <= 0 {
		m.rearm.Store(rwRearmAfter)
		m.rbias.Store(true)
	}
}

// slotSum is the distributed reader count. Transient entries from
// readers about to undo can be included — callers treat a nonzero sum
// as "readers may hold" and rely on the undo path running slotRelease,
// which re-triggers the drain check.
func (m *RWMutex) slotSum() int64 {
	var n int64
	for i := range m.slots {
		n += m.slots[i].n.Load()
	}
	return n
}

// slotRelease drops one slot hold (or undoes a bounced slot entry) and,
// under writer pressure, runs the drain check that grants or wakes the
// writer the moment the distributed count reaches zero.
func (m *RWMutex) slotRelease(sl *rwslot) {
	if sl.n.Add(-1) < 0 {
		panic("icilk: RWMutex.RUnlock of an unlocked RWMutex")
	}
	if m.state.Load()&(rwWriter|rwWait) != 0 {
		m.slotDrainCheck()
	}
}

// slotDrainCheck re-reads everything under the internal lock after a
// slot release observed writer pressure: if the distributed count has
// drained, either wake the drain-parked writer (which already holds the
// writer bit) or run the ordinary grant pass.
func (m *RWMutex) slotDrainCheck() {
	m.mu.Lock()
	if m.slotSum() != 0 {
		m.mu.Unlock()
		return
	}
	if dw := m.drainW; dw != nil {
		m.drainW = nil
		m.mu.Unlock()
		m.rt.requeue(dw)
		return
	}
	s := m.state.Load()
	if s&rwWriter == 0 && rwReaders(s) == 0 && s&rwWait != 0 {
		m.grantLocked(true) // releases mu
		return
	}
	m.mu.Unlock()
}

// rlockSlow re-checks under the internal lock (the writer may have just
// released, or the wait bit may be stale), then queues behind the write
// holder. On resume the read lock is already held: the granter counted
// every granted reader into the state word before requeueing them.
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
	// to boost: read holders are anonymous.
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
			m.recordAcquire(t)
			return
		}
	}
	if cyc := m.block(c, qRead, holder, &rt.stats.rwReadParks); cyc != nil {
		panic(cyc)
	}
	m.recordAcquire(t)
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

// RUnlock releases a read hold: a slot decrement when the hold was
// published through the BRAVO slot array (the task-private rslots
// record says which slot, so a task that migrated workers mid-hold
// still releases the slot it incremented), or one atomic add on the
// centralized word — plus a grant pass when this was the last reader
// out and waiters are queued.
func (m *RWMutex) RUnlock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.RUnlock outside task context")
	}
	t := c.t
	m.recordRelease(t)
	for i := len(t.rslots) - 1; i >= 0; i-- {
		if t.rslots[i].m == m {
			sl := t.rslots[i].sl
			copy(t.rslots[i:], t.rslots[i+1:])
			t.rslots[len(t.rslots)-1] = rslotHold{}
			t.rslots = t.rslots[:len(t.rslots)-1]
			m.slotRelease(sl)
			return
		}
	}
	s := m.state.Add(-rwReaderInc)
	if rwReaders(s) < 0 {
		panic("icilk: RWMutex.RUnlock of an unlocked RWMutex")
	}
	if s&rwWait != 0 && rwReaders(s) == 0 {
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
	if s&rwWriter != 0 || rwReaders(s) > 0 || s&rwWait == 0 || m.slotSum() != 0 {
		// Slot readers still hold: the last of them re-runs this check
		// from slotRelease, so bailing here cannot strand the grant.
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
// PriorityInversionError when inversion checking is enabled.
func (m *RWMutex) Lock(c *Ctx) {
	if c == nil {
		panic("icilk: RWMutex.Lock outside task context")
	}
	t := c.t
	rt := t.rt
	if rt.cfg.checkInversions && t.prio > m.wceil {
		rt.stats.ceilings.Add(1)
		panic(&PriorityInversionError{Toucher: t.prio, Touched: m.wceil, Primitive: "rwmutex(write)", Name: m.name})
	}
	// Fast path: completely free and not read-biased — one CAS. With the
	// bias set, slot readers may hold invisibly to the state word, so the
	// write acquire must go through the revocation sweep instead. The
	// post-CAS bias re-check closes the enable race: a concurrent
	// maybeRearm can set the bias between our load and our CAS, letting a
	// slot reader in; seeing the bias after winning the CAS means slot
	// holds are possible and must be revoked and drained before entering.
	// Seeing it clear means any revocation completed before our CAS (an
	// in-progress one holds rwWait, which would have failed the CAS) and
	// drained the slots to zero, and no new slot reader can have entered
	// against a bias-off lock.
	if !m.rbias.Load() && m.state.CompareAndSwap(0, rwWriter) {
		m.wowner.Store(t)
		m.acquired(t)
		if m.rbias.Load() {
			m.revokeAndDrain(c, t, rt)
		}
		return
	}
	m.wlockSlow(c, t, rt)
}

// revokeAndDrain runs bias revocation for a writer that already holds
// the writer bit (the fast-path enable race): pin releases to the slow
// path, clear the bias, and if slot readers are still out, park as the
// drain waiter until the last of them requeues us. The rwWait-then-
// bias-clear order is what makes a racing slot reader either bounce on
// its recheck or be counted by our sweep.
func (m *RWMutex) revokeAndDrain(c *Ctx, t *task, rt *Runtime) {
	m.mu.Lock()
	m.pinSlow()
	m.rbias.Store(false)
	m.rearm.Store(rwRearmAfter)
	rt.stats.rwRevokes.Add(1)
	if m.slotSum() == 0 {
		// Nothing to drain. Clear the wait bit if it is ours alone, so
		// the release fast path stays a single CAS; with waiters queued
		// it must stay set for the grant machinery.
		if m.empty() {
			for {
				s := m.state.Load()
				if m.state.CompareAndSwap(s, s&^rwWait) {
					break
				}
			}
		}
		m.mu.Unlock()
		return
	}
	g := c.g
	g.prepare(t)
	w := g.w // capture before t becomes resumable; see gctx.park
	m.drainW = t
	m.mu.Unlock()
	rt.stats.rwWriteParks.Add(1)
	g.park(rt, w)
}

// wlockSlow re-checks under the internal lock, then queues behind the
// write holder, or behind the read era (read holders are anonymous:
// there is no one to boost). On resume the write lock is held and
// wowner already points at this task.
func (m *RWMutex) wlockSlow(c *Ctx, t *task, rt *Runtime) {
	if m.wowner.Load() == t {
		panic("icilk: RWMutex is not reentrant: Lock by current write holder")
	}
	m.mu.Lock()
	m.pinSlow()
	// Revoke the reader bias under writer pressure — the standard BRAVO
	// fallback. rwWait is already set (above), so a slot reader that
	// raced past the bias check bounces on its state recheck, and one
	// that made it in is visible to the slotSum reads below; the last
	// slot reader out re-runs the grant check from slotRelease.
	if m.rbias.Load() {
		m.rbias.Store(false)
		m.rearm.Store(rwRearmAfter)
		rt.stats.rwRevokes.Add(1)
	}
	// Self-grant when fully free. Readers can still drain concurrently
	// (their RUnlock is a plain add or slot decrement), so CAS until the
	// picture is stable: the last reader out will find rwWait set and
	// serialize on mu.
	var holder *task
	for {
		s := m.state.Load()
		if s&rwWriter != 0 {
			holder = m.resolveHolder()
			break
		}
		if rwReaders(s) > 0 || m.slotSum() > 0 {
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
