package icilk

import "sync"

// Worker-striped free lists for task and future objects — the
// allocation half of cutting the per-request future tax. Every request
// through the serve layer used to pay a fresh heap allocation for its
// task, its future, and its IO promise; at steady state those objects
// have the lifetime of one request and the same shape every time, which
// is exactly what a free list is for. The stripes follow the
// StripedCounter discipline: one small pool per worker slot, indexed by
// the current worker id, so the hot path never contends on a global
// pool lock (and unlike sync.Pool, nothing is dropped at GC time — the
// steady-state hit rate is what makes spawn/touch allocation-free).
//
// Safety model. A task is recycled only when it completed without ever
// being promoted to a fiber (t.g == nil): such a task was popped from
// exactly one queue under the dispatch claim, ran inline, and appears
// on no waiter list. A stale duplicate entry (an inheritance kick) can
// still point at a pooled task, but pooled tasks keep their dispatch
// claim — submit opens the next round only after the task is fully
// re-initialized, so a stale entry either loses the claim and is
// dropped, or wins it and runs the fully-formed new incarnation in the
// new entry's place (the same race submit already tolerates).
//
// A future is recycled only on the explicit TouchRelease path: the
// runtime cannot know how many first-class handles to a future exist,
// so the caller asserts "this was the last touch". Each recycle bumps
// the future's generation stamp; handles capture the stamp at creation,
// and with Config.Debug set, a stale handle touching a recycled
// future fails loudly with a StaleHandleError instead of silently
// reading the next occupant's value.
type poolStripe struct {
	mu    sync.Mutex
	tasks []*task
	futs  []*future
	_     [40]byte // pad to keep neighbouring stripes off one cache line
}

// poolCap bounds each stripe's free list; overflow is left to the GC.
const poolCap = 256

// stripeFor picks the pool stripe for the current execution context:
// the worker whose slot g holds, or stripe 0 for external goroutines
// (IO completers, harness code).
func (rt *Runtime) stripeFor(g *gctx) *poolStripe {
	if g != nil {
		if w := g.w; w != nil {
			return &rt.pools[w.id]
		}
	}
	return &rt.pools[0]
}

// getTask returns a recycled task or a fresh one. The returned task
// still holds its dispatch claim from its previous life (or a synthetic
// one, for fresh tasks); submit releases it once initialization is done.
func (rt *Runtime) getTask(g *gctx) *task {
	if rt.cfg.pooling {
		s := rt.stripeFor(g)
		s.mu.Lock()
		if n := len(s.tasks); n > 0 {
			t := s.tasks[n-1]
			s.tasks[n-1] = nil
			s.tasks = s.tasks[:n-1]
			s.mu.Unlock()
			rt.stats.poolHits.Add(1)
			return t
		}
		s.mu.Unlock()
	}
	rt.stats.poolMisses.Add(1)
	t := &task{rt: rt}
	t.claimed.Store(true)
	return t
}

// putTask recycles a completed, never-promoted task. The caller (the
// tail of execTask) guarantees no queue entry for this round remains
// unclaimed and no waiter list references t. The dispatch claim is
// deliberately left held: it is the fence that keeps stale duplicate
// entries from dispatching the pooled object.
func (rt *Runtime) putTask(g *gctx, t *task) {
	t.fut = nil
	t.name = ""
	t.fn = nil
	t.blockedOn = nil
	t.boost.Store(0)
	t.floor = 0
	t.held = t.held[:0]
	t.ordHeld = t.ordHeld[:0]
	t.rheld = t.rheld[:0]
	t.fwdBudget = 0
	t.fwdVal = nil
	t.fwdErr = nil
	s := rt.stripeFor(g)
	s.mu.Lock()
	if len(s.tasks) < poolCap {
		s.tasks = append(s.tasks, t)
	}
	s.mu.Unlock()
}

// getFuture returns a recycled or fresh future at priority p. Recycled
// futures keep their generation stamp (bumped at recycle time), so
// handles minted against the new incarnation carry the current stamp.
func (rt *Runtime) getFuture(g *gctx, p Priority) *future {
	if rt.cfg.pooling {
		s := rt.stripeFor(g)
		s.mu.Lock()
		if n := len(s.futs); n > 0 {
			f := s.futs[n-1]
			s.futs[n-1] = nil
			s.futs = s.futs[:n-1]
			s.mu.Unlock()
			rt.stats.poolHits.Add(1)
			f.prio = p
			return f
		}
		s.mu.Unlock()
	}
	rt.stats.poolMisses.Add(1)
	return &future{prio: p}
}

// putFuture recycles a completed future whose last touch has returned.
// The generation bump comes FIRST: from that point every handle minted
// against the previous incarnation is detectably stale, and only then
// is the cell reset for reuse.
func (rt *Runtime) putFuture(g *gctx, f *future) {
	f.gen.Add(1)
	f.mu.Lock()
	f.done.Store(false)
	f.val = nil
	f.err = nil
	f.waiters = nil
	f.owner = nil
	f.doneCh = nil
	f.mu.Unlock()
	s := rt.stripeFor(g)
	s.mu.Lock()
	if len(s.futs) < poolCap {
		s.futs = append(s.futs, f)
	}
	s.mu.Unlock()
}

// StaleHandleError reports a use of a Future/Handle after the future it
// referenced was recycled by TouchRelease — detected only under
// Config.Debug, which is what makes release misuse fail loudly
// in tests instead of corrupting a reused future in production.
type StaleHandleError struct {
	// Minted and Current are the generation stamps of the handle and of
	// the future's present incarnation.
	Minted, Current uint64
}

func (e *StaleHandleError) Error() string {
	return "icilk: stale future handle: touched generation " +
		itoa(e.Minted) + " but the future was recycled (now generation " +
		itoa(e.Current) + ")"
}

// itoa avoids pulling fmt into the pool hot-path file for an error
// string built only on the failure path.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
