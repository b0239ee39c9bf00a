package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/icilk"
)

// This file measures what the state layer's lock-free fast paths cost:
// the point of rebuilding Ref and Mutex around CAS publication is that
// the ceilinged, inheritance-capable primitives the paper's Fig. 12
// discipline pushes every app onto should price like the plain Go
// primitives they replaced. The `lock` experiment reports uncontended
// ns/op against the raw sync.Mutex / atomic-load baselines, and a
// read-mostly scaling curve that shows RWMutex readers actually running
// in parallel where a Mutex serializes them.

// LockFastPath holds the uncontended single-task costs, in ns/op.
type LockFastPath struct {
	// MutexLockUnlockNs is one icilk.Mutex Lock+Unlock pair from a task.
	MutexLockUnlockNs float64 `json:"mutex_lock_unlock_ns"`
	// SyncMutexLockUnlockNs is the raw sync.Mutex baseline for the pair.
	SyncMutexLockUnlockNs float64 `json:"sync_mutex_lock_unlock_ns"`
	// TryLockNs is one successful icilk.Mutex TryLock+Unlock pair.
	TryLockUnlockNs float64 `json:"trylock_unlock_ns"`
	// RWMutexRLockRUnlockNs is one uncontended read-mode pair.
	RWMutexRLockRUnlockNs float64 `json:"rwmutex_rlock_runlock_ns"`
	// RefLoadNs is one icilk.Ref Load (ceiling check + atomic load).
	RefLoadNs float64 `json:"ref_load_ns"`
	// AtomicLoadNs is the raw atomic.Int64 Load baseline.
	AtomicLoadNs float64 `json:"atomic_load_ns"`
	// RefUpdateNs is one icilk.Ref Update (CAS retry loop, uncontended).
	RefUpdateNs float64 `json:"ref_update_ns"`
	// AtomicAddNs is the raw atomic.Int64 Add baseline for Update.
	AtomicAddNs float64 `json:"atomic_add_ns"`
}

// MutexOverhead is the icilk/sync cost ratio for the Lock+Unlock pair.
func (f LockFastPath) MutexOverhead() float64 {
	if f.SyncMutexLockUnlockNs == 0 {
		return 0
	}
	return f.MutexLockUnlockNs / f.SyncMutexLockUnlockNs
}

// RefOverhead is the Ref.Load/atomic-load cost ratio.
func (f LockFastPath) RefOverhead() float64 {
	if f.AtomicLoadNs == 0 {
		return 0
	}
	return f.RefLoadNs / f.AtomicLoadNs
}

// RWScalePoint is one worker count of the read-mostly scaling curve:
// total read-section throughput with the shared table behind an
// icilk.RWMutex versus an icilk.Mutex. The read section does a few
// microseconds of real work (a map probe plus a spin), so the curve
// measures whether readers run in parallel, not just the lock word's
// cycle count.
type RWScalePoint struct {
	Workers        int     `json:"workers"`
	RWOpsPerSec    float64 `json:"rw_ops_per_sec"`
	MutexOpsPerSec float64 `json:"mutex_ops_per_sec"`
}

// Speedup is the RW/Mutex throughput ratio at this worker count.
func (p RWScalePoint) Speedup() float64 {
	if p.MutexOpsPerSec == 0 {
		return 0
	}
	return p.RWOpsPerSec / p.MutexOpsPerSec
}

// LockResult is the `lock` experiment's full payload.
type LockResult struct {
	FastPath    LockFastPath   `json:"fast_path"`
	ReadScaling []RWScalePoint `json:"read_scaling"`
}

// fastPathIters is sized so each measured loop runs a few milliseconds:
// long enough to amortize the task spawn and timer reads, short enough
// that the whole experiment stays sub-second.
const fastPathIters = 200_000

// LockFast measures the uncontended fast paths and the read-mostly
// scaling curve.
func LockFast(cfg EvalConfig) LockResult {
	cfg = cfg.withDefaults()
	res := LockResult{FastPath: measureFastPaths()}
	for _, w := range scaleWorkerCounts(cfg.Workers) {
		res.ReadScaling = append(res.ReadScaling, measureReadScaling(w, cfg.Duration))
	}
	return res
}

// measureFastPaths times every primitive from a single task on a
// single-worker runtime — no contention, so every op takes its fast
// path (verifiably: an uncontended run keeps MutexParks at zero).
func measureFastPaths() LockFastPath {
	rt := icilk.New(icilk.Config{Workers: 1, Levels: 1})
	defer rt.Shutdown()

	var out LockFastPath
	run := func(f func(c *icilk.Ctx)) float64 {
		fut := icilk.Go(rt, nil, 0, "lock-bench", func(c *icilk.Ctx) int {
			start := time.Now()
			f(c)
			elapsedNs := float64(time.Since(start).Nanoseconds())
			return int(elapsedNs)
		})
		ns, err := icilk.Await(fut, 60*time.Second)
		if err != nil {
			return 0
		}
		return float64(ns) / fastPathIters
	}

	m := icilk.NewMutex(rt, 0, "bench.mutex")
	out.MutexLockUnlockNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			m.Lock(c)
			m.Unlock(c)
		}
	})
	out.TryLockUnlockNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			if m.TryLock(c) {
				m.Unlock(c)
			}
		}
	})
	var sm sync.Mutex
	out.SyncMutexLockUnlockNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			sm.Lock()
			sm.Unlock()
		}
	})
	rw := icilk.NewRWMutex(rt, 0, 0, "bench.rwmutex")
	out.RWMutexRLockRUnlockNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			rw.RLock(c)
			rw.RUnlock(c)
		}
	})
	ref := icilk.NewRef[int64](rt, 0, 1)
	var sink int64
	out.RefLoadNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			sink += ref.Load(c)
		}
	})
	var ai atomic.Int64
	ai.Store(1)
	out.AtomicLoadNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			sink += ai.Load()
		}
	})
	out.RefUpdateNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			ref.Update(c, func(v int64) int64 { return v + 1 })
		}
	})
	out.AtomicAddNs = run(func(c *icilk.Ctx) {
		for i := 0; i < fastPathIters; i++ {
			sink += ai.Add(1)
		}
	})
	_ = sink
	return out
}

// scaleWorkerCounts picks the worker counts of the scaling sweep:
// doubling from 1 up to the configured worker count (at least 4), capped
// by the machine's cores — a curve flat for Mutex and rising for
// RWMutex is the whole point of the read-mostly primitive.
func scaleWorkerCounts(max int) []int {
	if max < 4 {
		max = 4
	}
	if n := runtime.NumCPU(); max > n {
		max = n
	}
	var out []int
	for w := 1; w <= max; w *= 2 {
		out = append(out, w)
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// measureReadScaling runs the read-mostly workload (1 write per 1024
// reads, a ~2µs read section over a shared table) on w workers, behind
// an RWMutex and then a Mutex, and reports total read-section
// throughput.
func measureReadScaling(w int, dur time.Duration) RWScalePoint {
	if dur > 150*time.Millisecond {
		dur = 150 * time.Millisecond // per (primitive, workers) cell
	}
	pt := RWScalePoint{Workers: w}
	pt.RWOpsPerSec = readMostlyThroughput(w, dur, true)
	pt.MutexOpsPerSec = readMostlyThroughput(w, dur, false)
	return pt
}

func readMostlyThroughput(workers int, dur time.Duration, rwlock bool) float64 {
	rt := icilk.New(icilk.Config{Workers: workers, Levels: 1})
	defer rt.Shutdown()

	table := map[int]int{}
	for i := 0; i < 64; i++ {
		table[i] = i
	}
	var (
		rw = icilk.NewRWMutex(rt, 0, 0, "scale.rw")
		mu = icilk.NewMutex(rt, 0, "scale.mu")
	)
	var stop atomic.Bool
	var ops atomic.Int64
	var futs []icilk.Future[int]
	for t := 0; t < workers; t++ {
		t := t
		futs = append(futs, icilk.Go(rt, nil, 0, "scale-reader", func(c *icilk.Ctx) int {
			n := 0
			state := uint64(t)*2654435761 + 1
			for !stop.Load() {
				state = state*6364136223846793005 + 1442695040888963407
				write := state%1024 == 0
				key := int(state>>33) % 64
				switch {
				case rwlock && write:
					rw.Lock(c)
					table[key]++
					rw.Unlock(c)
				case rwlock:
					rw.RLock(c)
					lockSpin(table[key])
					rw.RUnlock(c)
				case write:
					mu.Lock(c)
					table[key]++
					mu.Unlock(c)
				default:
					mu.Lock(c)
					lockSpin(table[key])
					mu.Unlock(c)
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

// lockSpin is the read section's work: ~2µs of arithmetic seeded by the
// table probe, enough that parallel readers visibly beat serialized
// ones without the loop optimizing away.
func lockSpin(seed int) {
	x := seed + 1
	for i := 0; i < 2000; i++ {
		x = x*31 + i
	}
	spinSink.Store(int64(x))
}

var spinSink atomic.Int64
