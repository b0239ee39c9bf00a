package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/icilk"
	"repro/internal/stats"
)

// StatePoint is one run of the shared-state contention experiment: the
// latency distribution of high-priority probe tasks that lock a Mutex
// under saturating low-priority lock traffic, with priority inheritance
// on or off, plus the scheduler counters that explain the difference
// (Inherits is nonzero exactly when the boost machinery fired).
type StatePoint struct {
	Inherit bool             `json:"inherit"`
	Probe   stats.Summary    `json:"probe_latency"`
	Stats   icilk.SchedStats `json:"sched_stats"`
}

// StateContention measures what priority inheritance buys. The workload
// has three parts, all sharing one Mutex with ceiling 1 on a 2-level
// prioritized runtime:
//
//   - a low-priority lock chain: each link locks, computes briefly,
//     parks on a short IO future while holding the lock (the blocking
//     acquire-hold shape that creates the inversion window), computes
//     again, unlocks, and spawns its successor;
//   - low-priority background tasks that keep the level-0 injection
//     queue tens of milliseconds deep; and
//   - high-priority probes, one every 5ms, that lock, compute a few
//     microseconds, and unlock, measuring spawn-to-completion latency.
//
// Without inheritance, a holder whose IO completes is requeued at level
// 0 behind the background backlog, and every probe blocked on it eats
// that backlog in its tail. With inheritance the blocked probe boosts
// the holder to level 1, its requeue lands at the probe's level, and the
// tail collapses to the remaining critical section.
//
// The runtime deliberately uses a single worker regardless of
// EvalConfig.Workers: the inversion is a queueing phenomenon, not a
// parallelism one, and one worker keeps the backlog arithmetic exact —
// the uninherited tail equals the injection-queue depth by construction
// — while also keeping the measurement honest on small hosts, where
// several spinning workers would drown the runtime's own scheduling in
// OS-level timeslicing.
func StateContention(cfg EvalConfig) []StatePoint {
	cfg = cfg.withDefaults()
	var out []StatePoint
	for _, inherit := range []bool{true, false} {
		out = append(out, stateRun(cfg, inherit))
	}
	return out
}

func stateRun(cfg EvalConfig, inherit bool) StatePoint {
	rt := icilk.New(icilk.Config{
		Workers:            1,
		Levels:             2,
		Prioritize:         true,
		DisableInheritance: !inherit,
	})
	defer rt.Shutdown()
	m := icilk.NewMutex(rt, 1, "state.bench")

	var stop atomic.Bool

	// The lock chain (level 0): one holder at a time, parked on IO
	// mid-critical-section. The successor spawn keeps lock traffic
	// continuous without an external pacer.
	var chain func(c *icilk.Ctx) int
	chain = func(c *icilk.Ctx) int {
		if stop.Load() {
			return 0
		}
		m.Lock(c)
		stateSpin(20 * time.Microsecond)
		icilk.IO(rt, 0, 200*time.Microsecond, func() int { return 0 }).Touch(c)
		stateSpin(20 * time.Microsecond)
		m.Unlock(c)
		icilk.Go(rt, c, 0, "state-chain", chain)
		return 0
	}
	icilk.Go(rt, nil, 0, "state-chain", chain)

	// Background saturation (level 0): keep ~256 spin tasks of 200µs
	// outstanding, so the injection queue stays ~50ms deep for the single
	// worker — the queue a deposed holder must wait out when inheritance
	// is off.
	const bgTarget, bgSpin = 256, 200 * time.Microsecond
	var outstanding atomic.Int64
	bgStop := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-bgStop:
				return
			case <-tick.C:
				for outstanding.Load() < bgTarget {
					outstanding.Add(1)
					icilk.Go(rt, nil, 0, "state-bg", func(c *icilk.Ctx) int {
						stateSpin(bgSpin)
						outstanding.Add(-1)
						return 0
					})
				}
			}
		}
	}()

	// Probes (level 1): open-loop arrivals measuring spawn-to-completion
	// latency of a short critical section against the saturated lock.
	var (
		resMu     sync.Mutex
		latencies []time.Duration
	)
	var probeWG sync.WaitGroup
	probeEnd := time.Now().Add(cfg.Duration)
	for time.Now().Before(probeEnd) {
		t0 := time.Now()
		probeWG.Add(1)
		icilk.Go(rt, nil, 1, "state-probe", func(c *icilk.Ctx) int {
			defer probeWG.Done()
			m.Lock(c)
			stateSpin(5 * time.Microsecond)
			m.Unlock(c)
			resMu.Lock()
			latencies = append(latencies, time.Since(t0))
			resMu.Unlock()
			return 0
		})
		time.Sleep(5 * time.Millisecond)
	}

	stop.Store(true)
	close(bgStop)
	bgWG.Wait()
	probeWG.Wait()
	_ = rt.WaitIdle(60 * time.Second)

	resMu.Lock()
	defer resMu.Unlock()
	return StatePoint{
		Inherit: inherit,
		Probe:   stats.Summarize(latencies),
		Stats:   rt.Stats(),
	}
}

// ChainPoint is one run of the chained-contention experiment: like
// StatePoint, but the probe's lock is the head of a three-lock chain —
// the holder of A is itself blocked on B, whose holder is blocked on C,
// whose holder is parked on IO. Rescuing the probe requires boosting
// the WHOLE chain: TransitiveBoosts counts the onward hops past the
// direct holder, and is nonzero exactly when chain propagation fired.
type ChainPoint struct {
	Inherit bool             `json:"inherit"`
	Probe   stats.Summary    `json:"probe_latency"`
	Stats   icilk.SchedStats `json:"sched_stats"`
}

// ChainContention measures what TRANSITIVE priority inheritance buys
// over direct (one-hop) inheritance. Three Mutexes A, B, C (ceiling 1)
// are held in a chain by three self-respawning low-priority tasks:
//
//   - the C task locks C, parks on a short IO future while holding it,
//     and unlocks — the tail holder, two waitingOn edges away from A;
//   - the B task locks B then blocks acquiring C;
//   - the A task locks A then blocks acquiring B;
//   - background low-priority tasks keep the level-0 injection queue
//     tens of milliseconds deep; and
//   - high-priority probes, one every 5ms, lock A and unlock.
//
// When a probe blocks on A, boosting only A's holder is useless — it is
// asleep on B's waiter list. The probe's priority must chain along the
// published waitingOn edges (A's holder → B's holder → C's holder) so
// that the one task that can actually make progress — C's holder, due
// to requeue when its IO completes — lands at the probe's level instead
// of behind the backlog. With DisableInheritance the whole chain drains
// at level 0 and the probe's tail eats the backlog once per link.
//
// Single worker for the same reason as StateContention: the inversion
// is a queueing phenomenon and one worker keeps it exact.
func ChainContention(cfg EvalConfig) []ChainPoint {
	cfg = cfg.withDefaults()
	var out []ChainPoint
	for _, inherit := range []bool{true, false} {
		out = append(out, chainRun(cfg, inherit))
	}
	return out
}

func chainRun(cfg EvalConfig, inherit bool) ChainPoint {
	rt := icilk.New(icilk.Config{
		Workers:            1,
		Levels:             2,
		Prioritize:         true,
		DisableInheritance: !inherit,
	})
	defer rt.Shutdown()
	A := icilk.NewMutex(rt, 1, "chain.A")
	B := icilk.NewMutex(rt, 1, "chain.B")
	C := icilk.NewMutex(rt, 1, "chain.C")

	var stop atomic.Bool

	// Tail holder: the only link that holds across an IO park. Its
	// requeue after the park is the event inheritance must re-level.
	var cTask func(c *icilk.Ctx) int
	cTask = func(c *icilk.Ctx) int {
		if stop.Load() {
			return 0
		}
		C.Lock(c)
		stateSpin(20 * time.Microsecond)
		icilk.IO(rt, 0, 200*time.Microsecond, func() int { return 0 }).Touch(c)
		stateSpin(20 * time.Microsecond)
		C.Unlock(c)
		icilk.Go(rt, c, 0, "chain-c", cTask)
		return 0
	}
	// Middle link: holds B while blocked on C, publishing the B→C
	// waitingOn edge the propagation walks.
	var bTask func(c *icilk.Ctx) int
	bTask = func(c *icilk.Ctx) int {
		if stop.Load() {
			return 0
		}
		B.Lock(c)
		C.Lock(c)
		stateSpin(5 * time.Microsecond)
		C.Unlock(c)
		B.Unlock(c)
		icilk.Go(rt, c, 0, "chain-b", bTask)
		return 0
	}
	// Head link: holds A while blocked on B — the direct holder a
	// probe's boost lands on first.
	var aTask func(c *icilk.Ctx) int
	aTask = func(c *icilk.Ctx) int {
		if stop.Load() {
			return 0
		}
		A.Lock(c)
		B.Lock(c)
		stateSpin(5 * time.Microsecond)
		B.Unlock(c)
		A.Unlock(c)
		icilk.Go(rt, c, 0, "chain-a", aTask)
		return 0
	}
	icilk.Go(rt, nil, 0, "chain-c", cTask)
	icilk.Go(rt, nil, 0, "chain-b", bTask)
	icilk.Go(rt, nil, 0, "chain-a", aTask)

	// Background saturation (level 0): identical to stateRun — the queue
	// each unboosted chain link must wait out, once per link.
	const bgTarget, bgSpin = 256, 200 * time.Microsecond
	var outstanding atomic.Int64
	bgStop := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-bgStop:
				return
			case <-tick.C:
				for outstanding.Load() < bgTarget {
					outstanding.Add(1)
					icilk.Go(rt, nil, 0, "chain-bg", func(c *icilk.Ctx) int {
						stateSpin(bgSpin)
						outstanding.Add(-1)
						return 0
					})
				}
			}
		}
	}()

	// Probes (level 1): lock the chain head.
	var (
		resMu     sync.Mutex
		latencies []time.Duration
	)
	var probeWG sync.WaitGroup
	probeEnd := time.Now().Add(cfg.Duration)
	for time.Now().Before(probeEnd) {
		t0 := time.Now()
		probeWG.Add(1)
		icilk.Go(rt, nil, 1, "chain-probe", func(c *icilk.Ctx) int {
			defer probeWG.Done()
			A.Lock(c)
			stateSpin(5 * time.Microsecond)
			A.Unlock(c)
			resMu.Lock()
			latencies = append(latencies, time.Since(t0))
			resMu.Unlock()
			return 0
		})
		time.Sleep(5 * time.Millisecond)
	}

	stop.Store(true)
	close(bgStop)
	bgWG.Wait()
	probeWG.Wait()
	_ = rt.WaitIdle(60 * time.Second)

	resMu.Lock()
	defer resMu.Unlock()
	return ChainPoint{
		Inherit: inherit,
		Probe:   stats.Summarize(latencies),
		Stats:   rt.Stats(),
	}
}

// ShardPoint is one shard count of the sharded-store sweep: total
// mixed read/write throughput over a key-addressed table split into
// Shards key-hash shards, each behind its own ceilinged RWMutex — the
// layout internal/serve's session store and response cache use. The
// 1-shard point is the unsharded baseline; the curve rising with shard
// count (on a multi-core host) is what key hashing buys once writers
// stop meeting on one lock.
type ShardPoint struct {
	Shards    int     `json:"shards"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// ShardScaling sweeps shard counts 1, 2, 4, ... on cfg.Workers workers
// (capped by the machine's cores).
func ShardScaling(cfg EvalConfig) []ShardPoint {
	cfg = cfg.withDefaults()
	workers := cfg.Workers
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	maxShards := 4
	for maxShards < workers {
		maxShards <<= 1
	}
	var out []ShardPoint
	for ns := 1; ns <= maxShards; ns *= 2 {
		out = append(out, ShardPoint{Shards: ns, OpsPerSec: shardedThroughput(workers, ns, cfg.Duration)})
	}
	return out
}

// shardedThroughput drives a write-heavy key-addressed workload (3
// reads per write, short critical sections over a 1024-key space) from
// one task per worker against an nshards-way sharded table.
func shardedThroughput(workers, nshards int, dur time.Duration) float64 {
	if dur > 150*time.Millisecond {
		dur = 150 * time.Millisecond // per shard-count cell
	}
	rt := icilk.New(icilk.Config{Workers: workers, Levels: 1})
	defer rt.Shutdown()

	type shard struct {
		mu *icilk.RWMutex
		m  map[int]int
	}
	shards := make([]shard, nshards)
	for i := range shards {
		shards[i] = shard{mu: icilk.NewRWMutex(rt, 0, 0, fmt.Sprintf("shard.bench/%d", i)), m: map[int]int{}}
	}
	mask := uint32(nshards - 1)

	var stop atomic.Bool
	var ops atomic.Int64
	var futs []icilk.Future[int]
	for t := 0; t < workers; t++ {
		t := t
		futs = append(futs, icilk.Go(rt, nil, 0, "shard-worker", func(c *icilk.Ctx) int {
			n := 0
			state := uint64(t)*2654435761 + 7
			for !stop.Load() {
				state = state*6364136223846793005 + 1442695040888963407
				key := int(state>>33) % 1024
				sh := &shards[uint32(key*0x9e3779b1)&mask]
				if state%4 == 0 {
					sh.mu.Lock(c)
					sh.m[key]++
					sh.mu.Unlock(c)
				} else {
					sh.mu.RLock(c)
					_ = sh.m[key]
					sh.mu.RUnlock(c)
				}
				n++
				if n%256 == 0 {
					c.Checkpoint()
				}
			}
			ops.Add(int64(n))
			return n
		}))
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	for _, f := range futs {
		_, _ = icilk.Await(f, 30*time.Second)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(ops.Load()) / elapsed
}

// stateSpin burns roughly d of CPU.
func stateSpin(d time.Duration) {
	end := time.Now().Add(d)
	x := 1
	for time.Now().Before(end) {
		for i := 0; i < 64; i++ {
			x = x*31 + i
		}
	}
	_ = x
}
