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
	// Prioritize enables the prioritized scheduler: one work-stealing
	// pool per level, and every worker takes the highest ready level at
	// each task boundary and yields to it at Checkpoint — no master and
	// no per-worker level floor (README's paper table records this
	// deviation from I-Cilk). False gives the Cilk-F baseline: all
	// levels share one work-stealing pool.
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
	c.inherit = !c.DisableInheritance
	return c
}

// level is one priority level's work-stealing scheduler state.
type level struct {
	deques []*clDeque   // indexed by worker ID
	inject *injectQueue // external and cross-level submissions (FIFO)
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
}

// Runtime is an I-Cilk-style scheduler instance.
type Runtime struct {
	cfg     Config
	levels  []*level
	workers []*worker

	outstanding atomic.Int64
	stopped     atomic.Bool
	wg          sync.WaitGroup

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

	// clock holds the armed AfterFunc and IO entries (clock.go).
	clock clock
	// boundaryPoll is the hook SetBoundaryPoll installed, nil for none.
	boundaryPoll atomic.Pointer[func()]
}

// New starts a runtime with the given configuration.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg}
	rt.parkCond = sync.NewCond(&rt.parkMu)
	rt.clock.epoch = time.Now()
	rt.clock.head.Store(never)
	rt.clock.fallbackAt = never
	// Only the levels effLevel can name exist, so every scan is bounded
	// by the levels in use: all of them when prioritizing, level 0 alone
	// in the baseline.
	for range rt.effLevel(Priority(cfg.Levels-1)) + 1 {
		lv := &level{inject: newInjectQueue()}
		for w := 0; w < cfg.Workers; w++ {
			lv.deques = append(lv.deques, newCLDeque())
		}
		rt.levels = append(rt.levels, lv)
	}
	for w := 0; w < cfg.Workers; w++ {
		wk := &worker{rt: rt, id: w, rng: uint64(w+1) * 0x9e3779b97f4a7c15}
		rt.workers = append(rt.workers, wk)
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.run()
	}
	return rt
}

// Shutdown stops the workers. Outstanding tasks are abandoned once their
// current step finishes; call WaitIdle first to drain.
func (rt *Runtime) Shutdown() {
	if rt.stopped.Swap(true) {
		return
	}
	rt.parkMu.Lock()
	rt.parkCond.Broadcast()
	rt.parkMu.Unlock()
	rt.wg.Wait()
}

// SetBoundaryPoll installs fn to run wherever workers poll the runtime
// clock: after each task, before a worker parks, and at the top of every
// Checkpoint. A server installs one to notice socket readiness on busy
// workers, which would otherwise leave it to Go's network poller. fn
// must not block; it may yield the goroutine's P (runtime.Gosched), and
// concurrent calls are its own to arbitrate. nil removes the hook. With
// none installed a boundary pays one atomic load for it.
func (rt *Runtime) SetBoundaryPoll(fn func()) {
	if fn == nil {
		rt.boundaryPoll.Store(nil)
		return
	}
	rt.boundaryPoll.Store(&fn)
}

// boundary is a worker's check at a task boundary: fire the clock's due
// entries, then run the poll hook, if one is installed.
func (rt *Runtime) boundary() {
	rt.pollClock()
	if fn := rt.boundaryPoll.Load(); fn != nil {
		(*fn)()
	}
}

// WaitIdle blocks until no spawned tasks remain outstanding or the
// timeout elapses. It waits on a completion signal from the last task;
// there is no polling loop. On an already idle runtime it returns at
// once, without arming a timer.
func (rt *Runtime) WaitIdle(timeout time.Duration) error {
	if rt.outstanding.Load() == 0 {
		return nil
	}
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

// submit routes a runnable task to a queue and wakes a worker. c is
// the running task's context — the parent of a spawn, or the yielding
// task itself — or nil outside any task. A task spawned by, or yielding
// from, a task at its own level lands on the current worker's deque: the
// locality fast path that also enables touch-time helping. Anything else
// goes to its level's injection queue. Every worker scans every level,
// so no placement can strand a task.
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
// fields. Every read of c therefore happens before the store, mirroring
// park's capture-before-visible rule.
func (rt *Runtime) submit(t *task, c *Ctx) {
	lvl := rt.effLevel(t.effPrio())
	if c != nil {
		if w := c.g.w; w != nil && rt.effLevel(c.t.effPrio()) == lvl {
			t.claimed.Store(false)
			rt.levels[lvl].deques[w.id].pushBottom(t)
			rt.wake()
			return
		}
	}
	t.claimed.Store(false)
	rt.levels[lvl].inject.push(t)
	rt.wake()
}

// spawn is the shared fcreate path behind Go and GoSelf: it wraps fn in
// a bare-closure task against the pre-built future and routes it to a
// run queue.
func (rt *Runtime) spawn(c *Ctx, p Priority, name string, f *future, fn func(*Ctx) any) {
	if rt.stopped.Load() {
		panic("icilk: spawn on a stopped runtime")
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
			t.floor = b
		}
	}
	rt.outstanding.Add(1)
	rt.stats.spawns.Add(1)
	rt.submit(t, c)
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
// which can be any goroutine (a worker, a fiber, the clock's fallback
// timer, or a socket reader). There is one wake path: wake skips the broadcast when
// no worker is parked, so under load a completion costs an atomic add,
// and an idle machine is woken at once.
func (rt *Runtime) requeue(t *task) {
	rt.enqueue(t)
	rt.wake()
}

// enqueue is requeue's push half: the task lands in its level's
// injection queue (a holder that was boosted while parked re-enters at
// the waiter's level). The caller owes a wake() once everything is
// pushed — finish pushes all of a future's waiters and wakes once.
func (rt *Runtime) enqueue(t *task) {
	t.claimed.Store(false)
	rt.levels[rt.effLevel(t.effPrio())].inject.push(t)
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
		t := w.next()
		if t == nil {
			rt.wg.Done()
			return
		}
		rt.runTask(g, t)
		if g.handedOff {
			// A task parked mid-run and this goroutine became a fiber;
			// its stack has fully unwound. Release the slot granted by
			// the last resuming worker and retire.
			g.yield <- struct{}{}
			return
		}
		// Task boundary: fire the clock's due entries (and run the poll
		// hook) before choosing the next task, so the waiters they wake
		// compete for it.
		rt.boundary()
	}
}

// next finds the worker's next task, parking the goroutine when the
// runtime is empty. It returns nil only at shutdown.
func (w *worker) next() *task {
	rt := w.rt
	for {
		if rt.stopped.Load() {
			return nil
		}
		if t := w.findTask(); t != nil {
			return t
		}
		// Nothing to run: fire what the clock has due (and run the poll
		// hook) before parking, since a parked worker polls nothing.
		rt.boundary()
		// Register as idle, then re-scan: any work published after the
		// wakeSeq read below will bump the sequence and cancel the park.
		rt.idle.Add(1)
		seq := rt.wakeSeq.Load()
		if t := w.findTask(); t != nil {
			rt.idle.Add(-1)
			return t
		}
		w.park(seq)
		rt.idle.Add(-1)
	}
}

// park blocks until new work is published (wakeSeq moves past seq) or
// the runtime stops.
func (w *worker) park(seq uint64) {
	rt := w.rt
	rt.parkMu.Lock()
	for rt.wakeSeq.Load() == seq && !rt.stopped.Load() {
		rt.parkCond.Wait()
	}
	rt.parkMu.Unlock()
}

// findTask returns the most urgent ready task: one scan from the top
// level down to level 0. A worker never runs a task while one at a
// higher level is ready (the prompt schedules of Theorem 2.3), so a
// level-1 arrival, a lock hand-off or an IO completion is served at the
// next task boundary, and an idle worker takes work at any level (the
// schedule is greedy). A level with nothing queued costs only its size
// loads.
func (w *worker) findTask() *task {
	rt := w.rt
	for lvl := len(rt.levels) - 1; lvl >= 0; lvl-- {
		if !rt.levels[lvl].pending() {
			continue
		}
		if t := w.findAtLevel(lvl); t != nil {
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
