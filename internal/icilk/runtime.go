package icilk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Runtime. Zero fields take the defaults documented
// on each field.
type Config struct {
	// Workers is the number of virtual cores P (default 4).
	Workers int
	// Levels is the number of priority levels (default 2). Priorities
	// range over 0..Levels-1, larger = more urgent.
	Levels int
	// Quantum is the master scheduler's re-evaluation interval
	// (default 500µs, the paper's setting). That is the timer's setting,
	// not the tick rate: a sub-millisecond Go timer is served from
	// epoll_wait's 1 ms granularity, and the default measures 750–870
	// ticks/s, an effective quantum of ≈1.2 ms. Workers do not wait for
	// it to serve a higher level (see findTask and Checkpoint).
	Quantum time.Duration
	// Gamma is the multiplicative desire growth parameter (default 2).
	Gamma int
	// UtilThreshold is the utilization threshold (default 0.9).
	UtilThreshold float64
	// Prioritize enables the two-level prioritized scheduler. False gives
	// the Cilk-F baseline: all levels share one work-stealing pool.
	Prioritize bool
	// DisableInheritance turns off priority inheritance on Mutex and
	// RWMutex — a holder blocked ahead of a higher-priority waiter is
	// otherwise re-leveled to the waiter's priority until it releases
	// the lock (the state benchmark's ablation).
	DisableInheritance bool
	// Debug turns on the runtime's debug checks, each of which turns a
	// silent failure into a loud one at a cost production runs should
	// not pay:
	//   - before a task parks on a held Mutex or RWMutex, walk the
	//     blocked-on edges from the holder and panic with a DeadlockError
	//     if the chain leads back to the parking task (a pointer chase per
	//     contended acquire, best-effort under concurrent hand-offs);
	//   - every Lock/RLock/TryLock records the acquiring task's held-lock
	//     set into a per-runtime graph of hold→acquire pairs, and
	//     LockOrderViolations reports its cycles — AB/BA orderings an
	//     adversarial schedule could deadlock, flagged even on runs whose
	//     interleaving got lucky (a graph append under one mutex per
	//     acquisition, which serializes the lock fast paths).
	// Tests turn it on and assert an empty LockOrderViolations report
	// when they finish.
	Debug bool

	// inherit is DisableInheritance's positive form, set by withDefaults
	// so the zero Config enables every feature.
	inherit bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Levels <= 0 {
		c.Levels = 2
	}
	if c.Quantum <= 0 {
		c.Quantum = 500 * time.Microsecond
	}
	if c.Gamma < 2 {
		c.Gamma = 2
	}
	if c.UtilThreshold <= 0 {
		c.UtilThreshold = 0.9
	}
	c.inherit = !c.DisableInheritance
	return c
}

// level is one priority level's work-stealing scheduler state.
type level struct {
	deques []*clDeque   // indexed by worker ID
	inject *injectQueue // external and cross-level submissions (FIFO)
	desire int          // master-only
	alloc  int          // master-only: cores granted last quantum
}

func (l *level) pending() bool {
	if l.inject.size() > 0 {
		return true
	}
	for _, d := range l.deques {
		if d.size() > 0 {
			return true
		}
	}
	return false
}

// worker is a virtual core. Exactly one goroutine at a time acts for a
// worker — initially the runner started by New, later whichever
// replacement runner was spawned when a fiber parked. Possession of the
// slot (not goroutine identity) is what serializes owner-side deque
// access.
type worker struct {
	rt *Runtime
	id int
	// rng is the xorshift64 state behind the steal-victim offset; only
	// the goroutine holding the worker's slot touches it.
	rng uint64

	// idleNs accumulates completed park durations; parkedSince holds
	// the start of an in-progress park (0 when running). Together they
	// give the master a monotone cumulative-idle clock read without any
	// cooperation from the worker — the only time the worker touches
	// time.Now is at park boundaries, never per task.
	idleNs      atomic.Int64
	parkedSince atomic.Int64
}

// Runtime is an I-Cilk-style scheduler instance.
type Runtime struct {
	cfg        Config
	levels     []*level
	workers    []*worker
	assignment []atomic.Int32

	outstanding atomic.Int64
	stopped     atomic.Bool
	wg          sync.WaitGroup
	masterStop  chan struct{}

	// Event-driven master wakeup. minAssign is the lowest level any
	// worker is currently mandated to serve; work submitted below it is
	// invisible to every scan (a scan stops at the worker's floor) and
	// would wait out the rest of the quantum, so the submitter pokes the
	// master through masterKick (buffered, non-blocking — concurrent
	// pokes coalesce) and the master reruns its allocation immediately.
	minAssign  atomic.Int32
	masterKick chan struct{}

	// Worker parking. Producers bump wakeSeq after publishing work and
	// broadcast if anyone is parked; a worker parks only if wakeSeq is
	// unchanged since before its last full scan, which closes the
	// publish/park race without any polling.
	parkMu   sync.Mutex
	parkCond *sync.Cond
	wakeSeq  atomic.Uint64
	idle     atomic.Int32

	// WaitIdle support: idleCh is created lazily by a waiter and closed
	// when outstanding drops to zero.
	idleMu sync.Mutex
	idleCh chan struct{}

	stats     schedCounters
	lockOrder lockOrderGraph
}

// New starts a runtime with the given configuration.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:        cfg,
		assignment: make([]atomic.Int32, cfg.Workers),
		masterStop: make(chan struct{}),
		masterKick: make(chan struct{}, 1),
	}
	rt.parkCond = sync.NewCond(&rt.parkMu)
	// Only the levels effLevel can name exist, so every scan is bounded
	// by the levels in use: all of them when prioritizing, level 0 alone
	// in the baseline.
	for range rt.effLevel(Priority(cfg.Levels-1)) + 1 {
		lv := &level{desire: 1, inject: newInjectQueue()}
		for w := 0; w < cfg.Workers; w++ {
			lv.deques = append(lv.deques, newCLDeque())
		}
		rt.levels = append(rt.levels, lv)
	}
	// Initial assignment: everyone serves the highest level.
	init := int32(len(rt.levels) - 1)
	rt.minAssign.Store(init)
	for w := 0; w < cfg.Workers; w++ {
		rt.assignment[w].Store(init)
		wk := &worker{rt: rt, id: w, rng: uint64(w+1) * 0x9e3779b97f4a7c15}
		rt.workers = append(rt.workers, wk)
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run()
	}
	if cfg.Prioritize {
		rt.wg.Add(1)
		go rt.master()
	}
	return rt
}

// Shutdown stops the workers and master. Outstanding tasks are abandoned
// once their current step finishes; call WaitIdle first to drain.
func (rt *Runtime) Shutdown() {
	if rt.stopped.Swap(true) {
		return
	}
	close(rt.masterStop)
	rt.parkMu.Lock()
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
	rt.wg.Wait()
}

// WaitIdle blocks until no spawned tasks remain outstanding or the
// timeout elapses. It waits on a completion signal from the last task;
// there is no polling loop.
func (rt *Runtime) WaitIdle(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		rt.idleMu.Lock()
		if rt.outstanding.Load() == 0 {
			rt.idleMu.Unlock()
			return nil
		}
		if rt.idleCh == nil {
			rt.idleCh = make(chan struct{})
		}
		ch := rt.idleCh
		rt.idleMu.Unlock()
		select {
		case <-ch:
			// Re-check: outstanding may have gone back up.
		case <-timer.C:
			return fmt.Errorf("icilk: %d tasks still outstanding after %v",
				rt.outstanding.Load(), timeout)
		}
	}
}

// taskDone retires one outstanding task or IO future, signaling WaitIdle
// waiters when the count reaches zero.
func (rt *Runtime) taskDone() {
	if rt.outstanding.Add(-1) == 0 {
		rt.idleMu.Lock()
		if rt.idleCh != nil {
			close(rt.idleCh)
			rt.idleCh = nil
		}
		rt.idleMu.Unlock()
	}
}

// Outstanding returns the number of incomplete tasks and IO futures.
func (rt *Runtime) Outstanding() int64 { return rt.outstanding.Load() }

// Workers returns the virtual core count P — what sharded stores and
// striped counters size their shard/stripe arrays from.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// effLevel maps a task priority to a scheduler level: the identity when
// prioritizing, level 0 in baseline mode.
func (rt *Runtime) effLevel(p Priority) int {
	if !rt.cfg.Prioritize {
		return 0
	}
	l := int(p)
	if l < 0 {
		l = 0
	}
	if l >= rt.cfg.Levels {
		l = rt.cfg.Levels - 1
	}
	return l
}

// wake publishes "new work exists" to parked workers. The caller must
// have pushed the work first. Bumping wakeSeq before checking idle
// closes the race against a worker that is between its last scan and
// its park.
func (rt *Runtime) wake() {
	rt.wakeSeq.Add(1)
	if rt.idle.Load() == 0 {
		return
	}
	rt.stats.wakes.Add(1)
	rt.parkMu.Lock()
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
}

// submit routes a runnable task to a queue and wakes a worker. When
// called from task context (g non-nil) and the current worker serves the
// task's level, the task lands on that worker's own deque — the locality
// fast path that also enables touch-time helping. The master can move
// the worker between the assignment check and the push; submit re-checks
// after pushing and, on a mismatch, pulls the task back off the bottom
// (still owned: steals only take the top) and routes it through the
// level's injection queue, so a task can never strand on a deque no
// worker at its level scans.
//
// Placement uses effPrio, so a holder boosted by priority inheritance
// re-enters circulation at its waiter's level. Resetting claimed opens
// the new dispatch round; any stale duplicate entry that wins the claim
// simply resumes the task in this entry's place (the resume channel
// serializes them).
//
// Claim-reset ordering: the store must precede the queue push (a popper
// that loses tryClaim drops the entry, which would strand the task),
// but since touch-time helping claims producers directly through the
// future's owner pointer — no queue pop required — the reset itself is
// the publication point: the instant claimed goes false, another task
// may win the claim and resume this one, overwriting its gctx's worker
// fields. Every read of g therefore happens before the store, mirroring
// park's capture-before-visible rule.
func (rt *Runtime) submit(t *task, g *gctx) {
	lvl := rt.effLevel(t.effPrio())
	if g != nil {
		if w := g.w; w != nil && int(rt.assignment[w.id].Load()) == lvl {
			d := rt.levels[lvl].deques[w.id]
			t.claimed.Store(false)
			d.pushBottom(t)
			if int(rt.assignment[w.id].Load()) != lvl {
				if popped := d.popBottom(); popped != nil {
					// popped can only be t: we own the bottom and pushed
					// last.
					rt.levels[lvl].inject.push(popped)
				}
			}
			rt.wake()
			return
		}
	}
	t.claimed.Store(false)
	rt.levels[lvl].inject.push(t)
	rt.wake()
	rt.kickMaster(lvl)
}

// kickMaster pokes the master when work lands at a level below every
// worker's mandate — the one placement no scan reaches (every scan stops
// at its worker's floor), which previously waited out the remainder of
// the quantum. The send is non-blocking: concurrent kicks coalesce into the
// buffered token, and the baseline configuration (no master) just
// leaves the token unread.
func (rt *Runtime) kickMaster(lvl int) {
	if int32(lvl) >= rt.minAssign.Load() {
		return
	}
	select {
	case rt.masterKick <- struct{}{}:
	default:
	}
}

// spawn is the shared fcreate path behind Go and GoSelf: it wraps fn in
// a bare-closure task against the pre-built future and routes it to a
// run queue.
func (rt *Runtime) spawn(c *Ctx, p Priority, name string, f *future, fn func(*Ctx) any) {
	if rt.stopped.Load() {
		panic("icilk: spawn on a stopped runtime")
	}
	var g *gctx
	if c != nil {
		g = c.g
	}
	t := &task{rt: rt, prio: p, fut: f, name: name, fn: fn}
	f.owner = t
	// A task spawned from inside a boosted critical section inherits the
	// boost as a floor: if the holder forks work it will join before
	// releasing the lock, that work must run at the inherited level too,
	// or the inversion the boost removed would reappear one edge away.
	// The floor is transient — the child sheds it the first time it
	// blocks without holding a lock (shedSpawnBoost), so fire-and-forget
	// spawns cannot squat on the high level indefinitely. t.floor keeps
	// the floor visible to dropBoost, which otherwise would erase it on
	// the child's first uncontended Unlock.
	if c != nil && c.t != nil {
		if b := c.t.boost.Load(); b > int32(p) {
			t.boost.Store(b)
			t.floor = Priority(b)
		}
	}
	rt.outstanding.Add(1)
	rt.stats.spawns.Add(1)
	rt.submit(t, g)
}

// Go spawns fn as a new task at priority p — fcreate. The task is a bare
// closure until it first blocks; the common never-blocking task runs
// inline on a worker with no goroutine, channel, or timestamp traffic.
// The returned future is first-class: store it, pass it, Touch it.
func Go[T any](rt *Runtime, c *Ctx, p Priority, name string, fn func(*Ctx) T) Future[T] {
	f := &future{prio: p}
	rt.spawn(c, p, name, f, func(c *Ctx) any { return fn(c) })
	return Future[T]{f: f}
}

// Spawn is the untyped fcreate: fn's any result completes the returned
// Handle directly, with no generic wrapper closure. It exists for hot
// paths that spawn with a hoisted closure: a Spawn/Touch pair costs the
// task and the future and nothing else.
func Spawn(rt *Runtime, c *Ctx, p Priority, name string, fn func(*Ctx) any) Handle {
	f := &future{prio: p}
	rt.spawn(c, p, name, f, fn)
	return Handle{f: f}
}

// GoSelf is Go for tasks that need their own future while running — the
// paper's email client passes "thisFut" into the compress routine so it
// can install its own handle in the coordination slot (Section 5.1). The
// future is created before the task starts, so the body receives a fully
// initialized handle.
func GoSelf[T any](rt *Runtime, c *Ctx, p Priority, name string, fn func(*Ctx, Future[T]) T) Future[T] {
	self := Future[T]{f: &future{prio: p}}
	rt.spawn(c, p, name, self.f, func(c *Ctx) any { return fn(c, self) })
	return self
}

// requeue puts an unblocked task back into circulation at its effective
// level and wakes a worker to run it. Called from completion context,
// which can be any goroutine (a worker, a fiber, an IO timer, or a
// socket reader). There is one wake path: wake skips the broadcast when
// no worker is parked, so under load a completion costs an atomic add,
// and an idle machine is woken at once.
func (rt *Runtime) requeue(t *task) {
	rt.enqueue(t)
	rt.wake()
}

// enqueue is requeue's push half: the task lands in its level's
// injection queue (a holder that was boosted while parked re-enters at
// the waiter's level) and the master is poked if no worker scans that
// level. The caller owes a wake() once everything is pushed —
// tryFinish pushes all of a future's waiters and wakes once.
func (rt *Runtime) enqueue(t *task) {
	t.claimed.Store(false)
	lvl := rt.effLevel(t.effPrio())
	rt.levels[lvl].inject.push(t)
	rt.kickMaster(lvl)
}

// run is a worker runner's scheduling loop. The goroutine executes tasks
// inline on its own stack; when a task first parks, the goroutine hands
// the worker role to a freshly spawned replacement (the WaitGroup slot
// transfers with the role), finishes its task stack as a fiber, releases
// the slot, and retires.
func (w *worker) run() {
	rt := w.rt
	g := &gctx{w: w}
	for {
		t, lvl := w.next()
		if t == nil {
			rt.wg.Done()
			return
		}
		g.grantLvl = lvl
		rt.runTask(g, t)
		if g.handedOff {
			// A task parked mid-run and this goroutine became a fiber;
			// its stack has fully unwound. Release the slot granted by
			// the last resuming worker and retire.
			g.yield <- struct{}{}
			return
		}
	}
}

// next finds the worker's next task, parking the goroutine when the
// runtime is empty. It returns (nil, 0) only at shutdown.
func (w *worker) next() (*task, int32) {
	rt := w.rt
	for {
		if rt.stopped.Load() {
			return nil, 0
		}
		lvl := rt.assignment[w.id].Load()
		if t := w.findTask(int(lvl)); t != nil {
			return t, lvl
		}
		// Register as idle, then re-scan: any work published after the
		// wakeSeq read below will bump the sequence and cancel the park.
		rt.idle.Add(1)
		seq := rt.wakeSeq.Load()
		lvl = rt.assignment[w.id].Load()
		if t := w.findTask(int(lvl)); t != nil {
			rt.idle.Add(-1)
			return t, lvl
		}
		w.park(seq)
		rt.idle.Add(-1)
	}
}

// park blocks until new work is published (wakeSeq moves past seq) or
// the runtime stops, accounting the idle interval for the master's
// utilization feedback.
func (w *worker) park(seq uint64) {
	rt := w.rt
	start := time.Now()
	w.parkedSince.Store(start.UnixNano())
	rt.parkMu.Lock()
	for rt.wakeSeq.Load() == seq && !rt.stopped.Load() {
		rt.parkCond.Wait()
	}
	rt.parkMu.Unlock()
	// Clear parkedSince before folding the interval into idleNs: the
	// master then momentarily under-counts this park (clamped at zero)
	// rather than double-counting it.
	w.parkedSince.Store(0)
	w.idleNs.Add(time.Since(start).Nanoseconds())
}

// findTask returns the most urgent ready task this worker may run: one
// scan from the top level down to floor, the worker's assignment. The
// assignment is a floor, not a first choice — a worker never runs a task
// while one at a higher level is ready (the prompt schedules of Theorem
// 2.3), so a level-1 arrival, a lock hand-off or an IO completion is
// served at the next task boundary instead of the master's next tick.
// Work above the floor can never be a priority violation; work below it
// is deliberately not taken — that would be baseline behavior — and an
// idle worker waits for the master to lower its floor. A level with
// nothing queued costs only its size loads.
func (w *worker) findTask(floor int) *task {
	rt := w.rt
	for lvl := len(rt.levels) - 1; lvl >= floor; lvl-- {
		if !rt.levels[lvl].pending() {
			continue
		}
		if t := w.findAtLevel(lvl); t != nil {
			if lvl > floor {
				rt.stats.upwardTakes.Add(1)
			}
			return t
		}
	}
	return nil
}

// findAtLevel looks for work at one level: own deque, injection queue,
// then stealing from a random victim. Every pop must win the task's
// dispatch claim before returning it: priority inheritance can push a
// duplicate entry for a queued holder at the waiter's level, and
// whichever entry is popped second loses the CAS and is dropped here.
func (w *worker) findAtLevel(lvl int) *task {
	L := w.rt.levels[lvl]
	for {
		t := L.deques[w.id].popBottom()
		if t == nil {
			break
		}
		if t.tryClaim() {
			return t
		}
	}
	for {
		t := L.inject.pop()
		if t == nil {
			break
		}
		if t.tryClaim() {
			return t
		}
	}
	off := int(w.nextRand() % uint64(len(L.deques)))
	for i := 0; i < len(L.deques); i++ {
		v := (off + i) % len(L.deques)
		if v == w.id {
			continue
		}
		for {
			t := L.deques[v].stealTop()
			if t == nil {
				break
			}
			if t.tryClaim() {
				w.rt.stats.steals.Add(1)
				return t
			}
		}
	}
	return nil
}

// nextRand advances the worker's xorshift64 state. The state is seeded
// nonzero and xorshift never reaches zero from a nonzero state.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// master is the top-level scheduler: every quantum it measures per-level
// utilization, updates desires, and reassigns workers to levels in
// priority order. Utilization is derived from each worker's cumulative
// park time (busy = not parked), so the workers never take timestamps on
// the task path.
func (rt *Runtime) master() {
	defer rt.wg.Done()
	p := rt.cfg.Workers
	top := int32(len(rt.levels) - 1)
	lastIdle := make([]int64, p)
	busy := make([]int64, rt.cfg.Levels)
	idle := make([]int64, rt.cfg.Levels)
	lastNow := time.Now()
	tick := time.NewTimer(rt.cfg.Quantum)
	defer tick.Stop()
	for {
		// Every wake-up, tick or kick, restarts the quantum — unless the
		// runtime is drained with every floor at the top, where a tick
		// has nothing to decide. Work at the top level is visible to
		// every scan, and every submission below it kicks (submit and
		// enqueue call kickMaster; lock hand-offs and completions go
		// through enqueue; an inheritance duplicate lands at a running
		// waiter's level, which that waiter's worker scans). So the
		// master sleeps on the kick alone, and a drained runtime costs
		// no CPU. The first tick after a sleep folds the whole sleep into
		// one fully idle interval.
		var tickC <-chan time.Time
		if rt.outstanding.Load() != 0 || rt.minAssign.Load() != top {
			tick.Reset(rt.cfg.Quantum)
			tickC = tick.C
		} else {
			tick.Stop()
		}
		select {
		case <-rt.masterStop:
			return
		case <-tickC:
			rt.stats.masterTicks.Add(1)
		case <-rt.masterKick:
			// Event-driven path: work arrived below every worker's
			// mandate. The interval since the last tick is too short for
			// the utilization feedback to mean anything, so skip the
			// desire update and rerun allocation with current desires —
			// pending() sees the new work and the commit hands it cores
			// now instead of at the next tick.
			rt.stats.masterKicks.Add(1)
			rt.reallocate(p)
			continue
		}
		now := time.Now()
		elapsed := now.Sub(lastNow).Nanoseconds()
		lastNow = now
		if elapsed <= 0 {
			continue
		}
		// Attribute each worker's busy/idle time to its assigned level.
		clear(busy)
		clear(idle)
		for _, w := range rt.workers {
			// Cumulative idle clock: completed parks plus the
			// in-progress one. The two loads are not atomic together, so
			// a park completing in between can make the clock dip or
			// jump for one quantum; the clamps below bound the error to
			// that quantum and the totals re-converge on the next read.
			cum := w.idleNs.Load()
			if ps := w.parkedSince.Load(); ps != 0 {
				if d := now.UnixNano() - ps; d > 0 {
					cum += d
				}
			}
			idleDelta := cum - lastIdle[w.id]
			lastIdle[w.id] = cum
			if idleDelta < 0 {
				idleDelta = 0
			}
			if idleDelta > elapsed {
				idleDelta = elapsed
			}
			lvl := int(rt.assignment[w.id].Load())
			idle[lvl] += idleDelta
			busy[lvl] += elapsed - idleDelta
		}
		// Desire feedback per level.
		for i, L := range rt.levels {
			total := busy[i] + idle[i]
			util := 0.0
			if total > 0 {
				util = float64(busy[i]) / float64(total)
			}
			satisfied := L.alloc >= L.desire
			switch {
			case util >= rt.cfg.UtilThreshold && satisfied:
				L.desire = min(L.desire*rt.cfg.Gamma, p)
			case util >= rt.cfg.UtilThreshold:
				// Keep the desire: it was not satisfied, so utilization
				// says nothing about what more cores would do.
			default:
				L.desire = max(L.desire/rt.cfg.Gamma, 1)
			}
		}
		rt.reallocate(p)
	}
}

// reallocate is the master's allocation + commit step, shared by the
// quantum tick and the event-driven kick: hand out cores in priority
// order against the current desires and pending work, then commit the
// worker→level assignment.
func (rt *Runtime) reallocate(p int) {
	// Allocate cores in priority order (highest level first). A level
	// with nothing queued requests no cores — otherwise, with fewer
	// workers than levels, the desire floor of 1 would let the top
	// levels hold every core while idle and starve the rest.
	remaining := p
	for i := rt.cfg.Levels - 1; i >= 0; i-- {
		L := rt.levels[i]
		want := L.desire
		if !L.pending() {
			want = 0
		}
		L.alloc = min(want, remaining)
		remaining -= L.alloc
	}
	// Leftover cores go to the highest level with pending work, so
	// the machine stays work-conserving.
	if remaining > 0 {
		granted := false
		for i := rt.cfg.Levels - 1; i >= 0; i-- {
			if rt.levels[i].pending() {
				rt.levels[i].alloc += remaining
				granted = true
				break
			}
		}
		if !granted {
			rt.levels[rt.cfg.Levels-1].alloc += remaining
		}
	}
	// Publish the new scan floor before committing: a submitter racing
	// with the commit either sees the old (higher) floor and kicks
	// spuriously, or sees the new one while the commit that serves it is
	// already in flight — never a missed kick with stranded work.
	minLvl := int32(0)
	idx := 0
	for i := rt.cfg.Levels - 1; i >= 0; i-- {
		if rt.levels[i].alloc > 0 && idx < p {
			minLvl = int32(i)
			idx += rt.levels[i].alloc
		}
	}
	if idx < p {
		minLvl = 0
	}
	rt.minAssign.Store(minLvl)
	// Commit the assignment: contiguous blocks, highest level first.
	// A changed assignment is itself a scheduling event: parked
	// workers may now be mandated to serve a level with work.
	changed := false
	idx = 0
	commit := func(i int32) {
		if rt.assignment[idx].Swap(i) != i {
			changed = true
		}
		idx++
	}
	for i := rt.cfg.Levels - 1; i >= 0; i-- {
		for n := 0; n < rt.levels[i].alloc && idx < p; n++ {
			commit(int32(i))
		}
	}
	for ; idx < p; idx++ {
		if rt.assignment[idx].Swap(0) != 0 {
			changed = true
		}
	}
	if changed {
		rt.wake()
	}
}

// Allocation returns the current worker→level assignment (diagnostics).
func (rt *Runtime) Allocation() []int {
	out := make([]int, len(rt.assignment))
	for i := range rt.assignment {
		out[i] = int(rt.assignment[i].Load())
	}
	return out
}
