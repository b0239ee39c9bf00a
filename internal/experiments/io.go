package experiments

import (
	"runtime"
	"time"

	"repro/internal/icilk"
)

// This file prices the future tax: one task + one future per spawn
// (the serving layer pays it once per admitted request), and one
// future per completion delivered from outside the runtime's tasks (an
// icilk.IO clock entry, or a Promise a device goroutine completes). The
// `io` experiment measures that tax and the rate at which the runtime
// absorbs promise completions:
//
//   - spawn+touch and promise complete→touch in ns/op and allocs/op;
//   - completions/sec absorbed, each completion requeueing its parked
//     toucher and waking a worker if one is asleep.

// IOFastPath holds the single-task steady-state costs. The allocs/op
// leaves are exact (runtime.MemStats.Mallocs deltas on a single-worker
// runtime with no other goroutines running), and the -diff gate holds
// onto them.
type IOFastPath struct {
	// SpawnTouch is one Spawn + Touch pair: the child runs inline via
	// touch-time helping; the task and the future are the allocations.
	SpawnTouchNs     float64 `json:"spawn_touch_ns"`
	SpawnTouchAllocs float64 `json:"spawn_touch_allocs_per_op"`
	// PromiseTouch is one NewPromiseIn + Complete + Touch round — the
	// shape of a completion delivered through a promise.
	PromiseTouchNs     float64 `json:"promise_touch_ns"`
	PromiseTouchAllocs float64 `json:"promise_touch_allocs_per_op"`
	// DoneTouch is one touch of an already-completed future: the
	// single-atomic-load fast path, the floor everything else chases.
	DoneTouchNs     float64 `json:"done_touch_ns"`
	DoneTouchAllocs float64 `json:"done_touch_allocs_per_op"`
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
	Completion IOCompletion `json:"completion"`
}

const (
	ioIters       = 100_000 // fast-path loop length (after warmup)
	ioWarmup      = 2_000   // warms the runtime before measuring
	ioCompletions = 10_000  // promises in the completion flood
)

// IOBench runs the io experiment.
func IOBench(cfg EvalConfig) IOResult {
	cfg = cfg.withDefaults()
	var res IOResult
	res.FastPath = measureIOFastPaths()
	res.Completion = measureCompletions(cfg.Workers)
	return res
}

// ioMeasure times fn (which runs iters ops inside one task) and returns
// (ns/op, allocs/op). The runtime is single-worker and unprioritized, so
// while the task runs, the worker executing it is the only goroutine
// allocating — the process-wide Mallocs delta is the loop's.
func ioMeasure(iters int, bench func(c *icilk.Ctx, n int)) (float64, float64) {
	rt := icilk.New(icilk.Config{Workers: 1, Levels: 1, Prioritize: false})
	defer rt.Shutdown()
	type sample struct {
		ns     float64
		allocs float64
	}
	fut := icilk.Go(rt, nil, 0, "io-bench", func(c *icilk.Ctx) sample {
		bench(c, ioWarmup) // reach steady state
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
		return 0, 0
	}
	return s.ns, s.allocs
}

func measureIOFastPaths() IOFastPath {
	var out IOFastPath
	nilFn := func(*icilk.Ctx) any { return nil }
	spawnTouch := func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			h := icilk.Spawn(c.Runtime(), c, 0, "io-child", nilFn)
			h.Touch(c)
		}
	}
	out.SpawnTouchNs, out.SpawnTouchAllocs = ioMeasure(ioIters, spawnTouch)

	promiseTouch := func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			pr := icilk.NewPromiseIn[int](c, 0)
			pr.Complete(7)
			pr.Future().Touch(c)
		}
	}
	out.PromiseTouchNs, out.PromiseTouchAllocs = ioMeasure(ioIters, promiseTouch)

	done := icilk.Completed(0, 42)
	var sink int
	out.DoneTouchNs, out.DoneTouchAllocs = ioMeasure(ioIters, func(c *icilk.Ctx, n int) {
		for i := 0; i < n; i++ {
			sink += done.Touch(c)
		}
	})
	_ = sink
	return out
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
			return pr.Future().Touch(c)
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
