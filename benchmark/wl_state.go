package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/icilk"
)

// Fixed sizing of the state_rw workload.
const (
	stateShards       = 4
	stateSlots        = 16
	stateWriters      = 2
	stateReadInterval = 2 * time.Millisecond // read transactions: 500/s
	stateReadsPerTx   = 64
	stateBacklog      = 32
	stateSpin         = 100 * time.Microsecond
	stateHoldIO       = 100 * time.Microsecond
	stateHoldEvery    = 4
	stateWarmupTx     = 2000
	stateWarmupWrites = 800

	prioWriter icilk.Priority = 0
	prioReader icilk.Priority = 1
)

// pairEntry is one table entry. A writer updates both fields inside one
// write-locked section, so a reader that sees them differ has seen a
// torn write: the lock failed to exclude it.
type pairEntry struct{ a, b int64 }

func (e pairEntry) consistent() bool { return e.a == e.b }

type stateShard struct {
	mu    *icilk.RWMutex
	slots [stateSlots]pairEntry
}

// stateTable is the shared state of the workload: a sharded table
// behind reader/writer locks and one counter behind a mutex, accessed
// by level-0 writers and level-1 readers.
type stateTable struct {
	rt     *icilk.Runtime
	shards [stateShards]stateShard
	cmu    *icilk.Mutex
	count  int64 // guarded by cmu

	writes atomic.Int64 // writes completed, for the final-counter check
	torn   atomic.Int64 // torn entries readers saw
}

func newStateTable(rt *icilk.Runtime) *stateTable {
	t := &stateTable{rt: rt, cmu: icilk.NewMutex(rt, prioReader, "state_rw.counter")}
	for i := range t.shards {
		t.shards[i].mu = icilk.NewRWMutex(rt, prioReader, prioWriter, fmt.Sprintf("state_rw.shard/%d", i))
	}
	return t
}

// splitmix is a tiny seeded generator; each stream of the workload owns
// one, so the same seed replays the same shard and slot choices.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// write is one writer operation: both fields of one entry under the
// shard's write lock, then the counter under the mutex. When hold is
// set each lock is held across a short IO, the blocking-holder shape
// that makes a level-1 reader wait behind a level-0 task.
func (t *stateTable) write(c *icilk.Ctx, r uint64, hold bool) {
	sh := &t.shards[r%stateShards]
	e := &sh.slots[(r>>8)%stateSlots]
	sh.mu.Lock(c)
	e.a++
	if hold {
		icilk.IO(t.rt, prioWriter, stateHoldIO, func() int { return 0 }).Touch(c)
	}
	e.b++
	sh.mu.Unlock(c)

	t.cmu.Lock(c)
	t.count++
	if hold {
		icilk.IO(t.rt, prioWriter, stateHoldIO, func() int { return 0 }).Touch(c)
	}
	t.cmu.Unlock(c)
	t.writes.Add(1)
}

// readSection is the table half of a read transaction: stateReadsPerTx
// read-locked lookups across the shards, checking each entry.
func (t *stateTable) readSection(c *icilk.Ctx, rng *splitmix) {
	for k := 0; k < stateReadsPerTx; k++ {
		r := rng.next()
		sh := &t.shards[r%stateShards]
		sh.mu.RLock(c)
		e := sh.slots[(r>>8)%stateSlots]
		sh.mu.RUnlock(c)
		if !e.consistent() {
			t.torn.Add(1)
		}
	}
}

func (t *stateTable) mutexSection(c *icilk.Ctx) int64 {
	t.cmu.Lock(c)
	v := t.count
	t.cmu.Unlock(c)
	return v
}

// check verifies the workload's invariants once the runtime is idle.
func (t *stateTable) check() error {
	if n := t.torn.Load(); n > 0 {
		return fmt.Errorf("state_rw: readers saw %d torn entries", n)
	}
	if t.count != t.writes.Load() {
		return fmt.Errorf("state_rw: counter %d after %d completed writes", t.count, t.writes.Load())
	}
	if v := t.rt.Stats().CeilingViolations; v != 0 {
		return fmt.Errorf("state_rw: %d ceiling violations", v)
	}
	return nil
}

// spin burns roughly d of CPU.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		for i := 0; i < 64; i++ {
			x = x*31 + i
		}
	}
	_ = x
}

// stateInst is the set-up state_rw workload.
type stateInst struct {
	rt   *icilk.Runtime
	t    *stateTable
	seed int64
}

func setupState(seed int64) (instance, float64, error) {
	rt := icilk.New(icilk.Config{Workers: serverWorkers, Levels: 2, Prioritize: true})
	s := &stateInst{rt: rt, t: newStateTable(rt), seed: seed}
	rss, err := procRSSMB(selfPID)
	if err != nil {
		rt.Shutdown()
		return nil, 0, err
	}
	// Warm-up: a fixed count of read transactions, one at a time, with
	// the writers and the compute backlog running.
	stop := s.startBackground(time.Now(), nil)
	var warmErr error
	for i := 0; i < stateWarmupTx && warmErr == nil; i++ {
		rng := splitmix(uint64(seed)<<20 + uint64(i))
		_, warmErr = icilk.Await(icilk.Go(rt, nil, prioReader, "read-tx", func(c *icilk.Ctx) int {
			s.t.readSection(c, &rng)
			s.t.mutexSection(c)
			return 0
		}), ioDeadlineSlack)
	}
	// ... and a fixed count of writes, which is what makes set-up long
	// enough to time repeatably.
	for limit := time.Now().Add(ioDeadlineSlack); s.t.writes.Load() < stateWarmupWrites && time.Now().Before(limit); {
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := firstError(warmErr, rt.WaitIdle(ioDeadlineSlack), s.t.check()); err != nil {
		rt.Shutdown()
		return nil, 0, err
	}
	return s, rss, nil
}

func (s *stateInst) close() error {
	s.rt.Shutdown()
	return nil
}

// startBackground starts the level-0 side of the workload — the writer
// chains and the compute backlog — and returns the function that stops
// it. Each chain appends one sample per write to its slot of writes
// when writes is non-nil.
func (s *stateInst) startBackground(start time.Time, writes *[stateWriters][]sample) (stop func()) {
	var stopped atomic.Bool
	for w := 0; w < stateWriters; w++ {
		w := w
		rng := splitmix(uint64(s.seed)<<8 + uint64(w) + 1)
		n := 0
		// A chain link does one write and spawns its successor, so lock
		// traffic is continuous without an external pacer. Only the
		// current link touches rng, n and its sample slice.
		var link func(c *icilk.Ctx) int
		link = func(c *icilk.Ctx) int {
			if stopped.Load() {
				return 0
			}
			t0 := time.Now()
			n++
			s.t.write(c, rng.next(), n%stateHoldEvery == 0)
			if writes != nil {
				writes[w] = append(writes[w], sample{due: t0.Sub(start), done: time.Since(start), ok: true})
			}
			icilk.Go(s.rt, c, prioWriter, "writer", link)
			return 0
		}
		icilk.Go(s.rt, nil, prioWriter, "writer", link)
	}

	stopBacklog := startBacklog(s.rt, prioWriter, stateBacklog)
	return func() {
		stopped.Store(true)
		stopBacklog()
	}
}

// startBacklog keeps target spin tasks of stateSpin outstanding at
// level p until the returned function is called. The backlog is topped
// up from a 1 ms ticker, as experiments/state.go does: self-respawning
// backlog tasks would monopolise their level and starve the writer
// chains.
func startBacklog(rt *icilk.Runtime, p icilk.Priority, target int64) (stop func()) {
	var outstanding atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for outstanding.Load() < target {
					outstanding.Add(1)
					icilk.Go(rt, nil, p, "backlog", func(*icilk.Ctx) int {
						spin(stateSpin)
						outstanding.Add(-1)
						return 0
					})
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// txTimes are the instants inside one read transaction.
type txTimes struct{ start, read, mutex time.Time }

func (s *stateInst) run(start time.Time, d time.Duration, tr *tracer) runData {
	before := s.rt.Stats()
	n := arrivals(d, stateReadInterval)
	fg := make([]sample, n)
	var times []txTimes
	if tr != nil {
		times = make([]txTimes, n)
	}
	var writes [stateWriters][]sample
	for w := range writes {
		writes[w] = make([]sample, 0, int(d.Seconds()*2000)+1024)
	}
	stop := s.startBackground(start, &writes)

	// Foreground: level-1 read transactions on a fixed schedule, each
	// timed from the instant it was due. Transaction i owns fg[i].
	late := pace(start, d, stateReadInterval, func(i int, due time.Time) {
		rng := splitmix(uint64(s.seed)<<20 + uint64(i))
		icilk.Go(s.rt, nil, prioReader, "read-tx", func(c *icilk.Ctx) int {
			t0 := time.Now()
			s.t.readSection(c, &rng)
			t1 := time.Now()
			s.t.mutexSection(c)
			t2 := time.Now()
			fg[i] = sample{due: due.Sub(start), done: t2.Sub(start), ok: true}
			if times != nil {
				times[i] = txTimes{t0, t1, t2}
			}
			return 0
		})
	})
	stop()
	err := firstError(s.rt.WaitIdle(ioDeadlineSlack), s.t.check())
	for i := range fg {
		if !fg[i].ok { // still running when the wait for idle gave up
			fg[i].due = time.Duration(i) * stateReadInterval
			err = firstError(err, errors.New("state_rw: read transaction did not finish"))
		}
	}

	if tr != nil {
		tb := tr.buf()
		for i, tt := range times {
			if !fg[i].ok {
				continue
			}
			op, due := opIDs.Add(1), start.Add(fg[i].due)
			tb.add(op, "transaction", "", due, tt.mutex)
			tb.add(op, "spawn_to_start", "transaction", due, tt.start)
			tb.add(op, "read_section", "transaction", tt.start, tt.read)
			tb.add(op, "mutex_section", "transaction", tt.read, tt.mutex)
		}
	}

	var bulk []sample
	for _, w := range writes {
		bulk = append(bulk, w...)
	}
	after := s.rt.Stats()
	return runData{fg: fg, bulk: bulk, late: late, err: err, counts: map[string]float64{
		"ops":        float64(len(fg) + len(bulk)),
		"mutexparks": float64(after.MutexParks - before.MutexParks),
		"rwrparks":   float64(after.RWReadParks - before.RWReadParks),
		"inherits":   float64(after.Inherits - before.Inherits),
		"rwrevokes":  float64(after.RWRevokes - before.RWRevokes),
	}}
}
