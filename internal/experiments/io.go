package experiments

import (
	"runtime"
	"time"

	"repro/internal/icilk"
)

// This file prices the per-request future tax the serving layer pays on
// every admitted request: one task + one future per spawn, one future
// per order token, one promise per IO completion. The `io` experiment
// measures the two mechanisms that cut it — worker-striped task/future
// pooling and forwarding Touch — each against its own ablation, plus
// the rate at which the runtime absorbs promise completions:
//
//   - spawn+touch and promise complete→touch in ns/op and allocs/op,
//     pooling on vs off (steady state with pooling on is 0 allocs/op);
//   - a K-hop handle chain resolved by one forwarding touch (park once,
//     migrate K-1 times) vs the re-park loop (park K times);
//   - completions/sec absorbed, each completion requeueing its parked
//     toucher and waking a worker if one is asleep.

// IOFastPath holds the single-task steady-state costs. The allocs/op
// leaves are exact (runtime.MemStats.Mallocs deltas on a single-worker
// runtime with no other goroutines running), so the pooled rows hitting
// 0.0 is a hard claim the -diff gate holds onto.
type IOFastPath struct {
	// SpawnTouch is one Spawn + TouchRelease pair: child runs inline via
	// touch-time helping, task and future recycle to the worker stripe.
	SpawnTouchPooledNs       float64 `json:"spawn_touch_pooled_ns"`
	SpawnTouchPooledAllocs   float64 `json:"spawn_touch_pooled_allocs_per_op"`
	SpawnTouchUnpooledNs     float64 `json:"spawn_touch_unpooled_ns"`
	SpawnTouchUnpooledAllocs float64 `json:"spawn_touch_unpooled_allocs_per_op"`
	// PromiseTouch is one NewPromiseIn + Complete + TouchRelease round —
	// the order-token and IO-completion shape in internal/serve.
	PromiseTouchPooledNs       float64 `json:"promise_touch_pooled_ns"`
	PromiseTouchPooledAllocs   float64 `json:"promise_touch_pooled_allocs_per_op"`
	PromiseTouchUnpooledNs     float64 `json:"promise_touch_unpooled_ns"`
	PromiseTouchUnpooledAllocs float64 `json:"promise_touch_unpooled_allocs_per_op"`
	// DoneTouch is one touch of an already-completed future: the
	// single-atomic-load fast path, the floor everything else chases.
	DoneTouchNs     float64 `json:"done_touch_ns"`
	DoneTouchAllocs float64 `json:"done_touch_allocs_per_op"`
}

// IOForward compares the two ways to resolve a chain of futures whose
// values are handles to the next future: a forwarding touch (one park,
// completion-time migration along the chain) against the re-park loop a
// plain touch forces (park, wake, touch the next, park again).
type IOForward struct {
	Hops int `json:"hops"`
	// ForwardChainNs is ns per chain resolved via TouchThrough.
	ForwardChainNs float64 `json:"forward_chain_ns"`
	// ReparkChainNs is ns per chain resolved by touching hop by hop.
	ReparkChainNs float64 `json:"repark_chain_ns"`
	// ParksForward / ParksRepark are the per-round park counts the two
	// paths actually paid (1 vs Hops when the gating worked).
	ParksForward int64 `json:"parks_forward"`
	ParksRepark  int64 `json:"parks_repark"`
	// ForwardedTouches is the scheduler's forward counter across the
	// forwarding rounds — (Hops-1) × rounds when every hop migrated.
	ForwardedTouches int64 `json:"forwarded_touches"`
}

// Speedup is the re-park/forwarding cost ratio: higher means the
// forwarding touch wins.
func (f IOForward) Speedup() float64 {
	if f.ForwardChainNs == 0 {
		return 0
	}
	return f.ReparkChainNs / f.ForwardChainNs
}

// IOCompletion is the completion flood: ioCompletions promises, each
// with its own parked toucher, completed back to back from one external
// goroutine.
type IOCompletion struct {
	// OpsPerSec is completions absorbed per second (all touchers done).
	OpsPerSec float64 `json:"ops_per_sec"`
	// Wakes is the park-condition broadcasts issued: at most one per
	// completion, fewer when the workers were already awake.
	Wakes int64 `json:"wakes"`
}

// IOResult is the `io` experiment's full payload.
type IOResult struct {
	FastPath   IOFastPath   `json:"fast_path"`
	Forward    IOForward    `json:"forward"`
	Completion IOCompletion `json:"completion"`
	// PoolHits/PoolMisses snapshot from the pooled fast-path runtime —
	// steady state means hits dwarf misses.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
}

const (
	ioIters       = 100_000 // fast-path loop length (after warmup)
	ioWarmup      = 2_000   // fills the pool stripes before measuring
	ioForwardHops = 8       // chain length K
	ioForwardRnds = 200     // chains per forwarding mode
	ioCompletions = 10_000  // promises in the completion flood
)

// IOBench runs the io experiment.
func IOBench(cfg EvalConfig) IOResult {
	cfg = cfg.withDefaults()
	var res IOResult
	res.FastPath, res.PoolHits, res.PoolMisses = measureIOFastPaths()
	res.Forward = measureForwarding()
	res.Completion = measureCompletions(cfg.Workers)
	return res
}

// ioMeasure times fn (which runs iters ops inside one task) and returns
// (ns/op, allocs/op). The runtime is single-worker and unprioritized, so
// while the task runs, the worker executing it is the only goroutine
// allocating — the process-wide Mallocs delta is the loop's.
func ioMeasure(pooled bool, iters int, bench func(c *icilk.Ctx, n int)) (float64, float64, icilk.SchedStats) {
	// DisableMetrics turns off the per-task record log (time stamps plus
	// a bounded append), the same configuration the lock experiment's
	// fast paths use; the pool and scheduler event counters are plain
	// atomics and keep counting.
	rt := icilk.New(icilk.Config{
		Workers:        1,
		Levels:         1,
		Prioritize:     false,
		DisableMetrics: true,
		DisablePooling: !pooled,
	})
	defer rt.Shutdown()
	type sample struct {
		ns     float64
		allocs float64
	}
	fut := icilk.Go(rt, nil, 0, "io-bench", func(c *icilk.Ctx) sample {
		bench(c, ioWarmup) // reach steady state: pool stripes filled
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		bench(c, iters)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return sample{
			ns:     float64(elapsed.Nanoseconds()) / float64(iters),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		}
	})
	s, err := icilk.Await(fut, 120*time.Second)
	if err != nil {
		return 0, 0, icilk.SchedStats{}
	}
	return s.ns, s.allocs, rt.Stats()
}

func measureIOFastPaths() (IOFastPath, int64, int64) {
	var out IOFastPath
	var hits, misses int64

	nilFn := func(*icilk.Ctx) any { return nil }
	spawnTouch := func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			h := icilk.Spawn(c.Runtime(), c, 0, "io-child", nilFn)
			h.TouchRelease(c)
		}
	}
	var st icilk.SchedStats
	out.SpawnTouchPooledNs, out.SpawnTouchPooledAllocs, st = ioMeasure(true, ioIters, spawnTouch)
	hits, misses = st.PoolHits, st.PoolMisses
	out.SpawnTouchUnpooledNs, out.SpawnTouchUnpooledAllocs, _ = ioMeasure(false, ioIters, spawnTouch)

	promiseTouch := func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			pr := icilk.NewPromiseIn[int](c, 0)
			pr.Complete(7)
			pr.Future().TouchRelease(c)
		}
	}
	out.PromiseTouchPooledNs, out.PromiseTouchPooledAllocs, _ = ioMeasure(true, ioIters, promiseTouch)
	out.PromiseTouchUnpooledNs, out.PromiseTouchUnpooledAllocs, _ = ioMeasure(false, ioIters, promiseTouch)

	done := icilk.Completed(0, 42)
	var sink int
	out.DoneTouchNs, out.DoneTouchAllocs, _ = ioMeasure(true, ioIters, func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			sink += done.Touch(c)
		}
	})
	_ = sink
	return out, hits, misses
}

// measureForwarding builds a K-promise chain per round — promise i's
// value is a handle to promise i+1, the last holds the payload — parks
// one toucher on the head, and completes the chain head first, so every
// inner future is still pending when the handle pointing at it lands.
// In forwarding mode the parked toucher migrates down the chain without
// waking (K-1 forwards, 1 park); in re-park mode each hop is a full
// park/wake round trip, and the completer waits for the toucher to park
// again before releasing the next hop (the scheduler's park counter is
// the gate), so the rounds measure K genuine suspensions.
func measureForwarding() IOForward {
	out := IOForward{Hops: ioForwardHops}
	forwardNs, parksF, forwards := forwardingRounds(true)
	reparkNs, parksR, _ := forwardingRounds(false)
	out.ForwardChainNs = forwardNs
	out.ReparkChainNs = reparkNs
	out.ParksForward = parksF
	out.ParksRepark = parksR
	out.ForwardedTouches = forwards
	return out
}

func forwardingRounds(forward bool) (nsPerChain float64, parksPerRound int64, forwards int64) {
	// Two workers so the toucher task and the resumed continuations never
	// wait on the bench harness itself; completions come from this
	// goroutine, off-runtime, like a device driver's.
	rt := icilk.New(icilk.Config{Workers: 2, Levels: 1, Prioritize: false})
	defer rt.Shutdown()

	waitParks := func(target int64) {
		deadline := time.Now().Add(30 * time.Second)
		for rt.Stats().Parks < target && time.Now().Before(deadline) {
			time.Sleep(5 * time.Microsecond)
		}
	}

	var total time.Duration
	base := rt.Stats()
	for r := 0; r < ioForwardRnds; r++ {
		prs := make([]icilk.Promise[any], ioForwardHops)
		for i := range prs {
			prs[i] = icilk.NewPromise[any](rt, 0)
		}
		head := prs[0].Future().Untyped()
		parks0 := rt.Stats().Parks
		start := time.Now()
		fut := icilk.Go(rt, nil, 0, "chain-toucher", func(c *icilk.Ctx) int {
			if forward {
				return head.TouchThrough(c).(int)
			}
			v := head.Touch(c)
			for {
				h, ok := v.(icilk.Handle)
				if !ok {
					return v.(int)
				}
				v = h.Touch(c)
			}
		})
		for i := 0; i < ioForwardHops; i++ {
			if forward {
				// One park up front; migrations are completer-side and
				// need no further gating.
				if i == 0 {
					waitParks(parks0 + 1)
				}
			} else {
				// The toucher must demonstrably park on hop i before the
				// completion that releases it.
				waitParks(parks0 + int64(i) + 1)
			}
			if i == ioForwardHops-1 {
				prs[i].Complete(any(1))
			} else {
				prs[i].Complete(any(*prs[i+1].Future().Untyped()))
			}
		}
		if _, err := icilk.Await(fut, 60*time.Second); err != nil {
			return 0, 0, 0
		}
		total += time.Since(start)
	}
	st := rt.Stats()
	nsPerChain = float64(total.Nanoseconds()) / float64(ioForwardRnds)
	parksPerRound = (st.Parks - base.Parks) / int64(ioForwardRnds)
	forwards = st.ForwardedTouches - base.ForwardedTouches
	return nsPerChain, parksPerRound, forwards
}

// measureCompletions parks ioCompletions touchers, one per promise,
// then floods the completions from this goroutine and measures how fast
// the runtime absorbs them.
func measureCompletions(workers int) IOCompletion {
	rt := icilk.New(icilk.Config{Workers: workers, Levels: 1, Prioritize: false})
	defer rt.Shutdown()

	prs := make([]icilk.Promise[int], ioCompletions)
	futs := make([]icilk.Future[int], ioCompletions)
	for i := range prs {
		prs[i] = icilk.NewPromise[int](rt, 0)
		pr := prs[i]
		futs[i] = icilk.Go(rt, nil, 0, "io-waiter", func(c *icilk.Ctx) int {
			return pr.Future().TouchRelease(c)
		})
	}
	// Let the touchers park; ops/sec measures completion absorption, not
	// spawn throughput.
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Parks < int64(ioCompletions) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}

	preWakes := rt.Stats().Wakes
	start := time.Now()
	for i := range prs {
		prs[i].Complete(i)
	}
	for _, f := range futs {
		if _, err := icilk.Await(f, 60*time.Second); err != nil {
			return IOCompletion{}
		}
	}
	elapsed := time.Since(start).Seconds()
	out := IOCompletion{Wakes: rt.Stats().Wakes - preWakes}
	if elapsed > 0 {
		out.OpsPerSec = float64(ioCompletions) / elapsed
	}
	return out
}
