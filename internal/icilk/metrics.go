package icilk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TaskRecord is one completed task's timing, used by the evaluation
// harness to compute per-priority response and compute times (Figures 13
// and 14 of the paper measure exactly these).
type TaskRecord struct {
	Name     string
	Prio     Priority
	Created  time.Time
	FirstRun time.Time
	Done     time.Time
}

// Response is the elapsed time from creation to completion — the paper's
// per-thread duration measurement.
func (r TaskRecord) Response() time.Duration { return r.Done.Sub(r.Created) }

// Queued is the time spent waiting before first execution.
func (r TaskRecord) Queued() time.Duration { return r.FirstRun.Sub(r.Created) }

// metrics accumulates task records.
type metrics struct {
	mu      sync.Mutex
	records []TaskRecord
}

const maxRecords = 1 << 20 // drop beyond this to bound memory

func (rt *Runtime) recordTask(t *task) {
	if !rt.cfg.collectMetrics {
		return
	}
	rt.metrics.mu.Lock()
	if len(rt.metrics.records) < maxRecords {
		rt.metrics.records = append(rt.metrics.records, TaskRecord{
			Name:     t.name,
			Prio:     t.prio,
			Created:  t.created,
			FirstRun: t.firstRun,
			Done:     t.done,
		})
	}
	rt.metrics.mu.Unlock()
}

// Records returns a copy of all completed-task records.
func (rt *Runtime) Records() []TaskRecord {
	rt.metrics.mu.Lock()
	defer rt.metrics.mu.Unlock()
	out := make([]TaskRecord, len(rt.metrics.records))
	copy(out, rt.metrics.records)
	return out
}

// ResetMetrics discards accumulated records (e.g. after warmup).
func (rt *Runtime) ResetMetrics() {
	rt.metrics.mu.Lock()
	rt.metrics.records = rt.metrics.records[:0]
	rt.metrics.mu.Unlock()
}

// counter is a cache-line-padded atomic counter: the scheduler's hot
// paths increment different counters from different workers, and
// without padding they would false-share one line.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// schedCounters are the runtime's internal event counters. They are
// always collected (plain atomic increments, no timestamps) and exposed
// through Stats.
type schedCounters struct {
	spawns        counter
	inlineRuns    counter
	promotions    counter
	parks         counter
	resumes       counter
	helps         counter
	steals        counter
	wakes         counter
	mutexParks    counter
	rwReadParks   counter
	rwWriteParks  counter
	rwRevokes     counter
	inherits      counter
	transBoosts   counter
	ceilings      counter
	poolHits      counter
	poolMisses    counter
	forwards      counter
	masterKicks   counter
	upwardTakes   counter
	preemptYields counter
}

// SchedStats is a snapshot of the scheduler's event counters since the
// runtime started. The suspend/resume pair (Parks/Resumes) and the
// Promotions count are the direct observables of the event-driven core:
// a promotion is the one-time cost of turning an inline task into a
// fiber, a park is one suspended goroutine awaiting a wakeup, and a
// resume is one slot grant to a parked fiber.
type SchedStats struct {
	// Spawns counts Go/GoSelf calls.
	Spawns int64
	// InlineRuns counts tasks that completed without ever blocking —
	// they ran as plain closures on a worker's goroutine from start to
	// finish (the fcreate fast path). Spawns - InlineRuns is the number
	// of tasks that parked at least once.
	InlineRuns int64
	// Promotions counts tasks promoted to fibers on their first block.
	Promotions int64
	// Parks counts goroutine suspensions (first-time promotions and
	// subsequent re-parks).
	Parks int64
	// Resumes counts slot grants to parked fibers.
	Resumes int64
	// Helps counts touched futures resolved by running the producer
	// inline from the toucher's own deque instead of parking.
	Helps int64
	// Steals counts successful cross-worker deque steals.
	Steals int64
	// Wakes counts park-condition broadcasts caused by new work arriving
	// while at least one worker was parked.
	Wakes int64
	// MutexParks counts tasks that blocked on a held Mutex.
	MutexParks int64
	// RWReadParks and RWWriteParks count tasks that blocked acquiring an
	// RWMutex in read mode (behind an active or waiting writer) and in
	// write mode (behind readers or another writer) — the per-mode
	// contention observables of the reader/writer primitive.
	RWReadParks  int64
	RWWriteParks int64
	// RWRevokes counts BRAVO bias revocations: a writer found an RWMutex
	// read-biased and swept the distributed reader slots before (or
	// while) acquiring. High values relative to write acquires mean the
	// lock is write-heavy and spends its time re-arming.
	RWRevokes int64
	// Inherits counts priority-inheritance events: a Mutex or RWMutex
	// write holder's effective priority raised because a higher-priority
	// task blocked behind it.
	Inherits int64
	// TransitiveBoosts counts onward hops of an inheritance event: the
	// boosted holder was itself parked on another lock (a published
	// blocked-on edge), so the boost was chained to that lock's holder
	// too — one count per re-boosted task beyond the direct holder.
	// Nonzero values mean chained blocking is actually occurring and the
	// transitive propagation is reaching it.
	TransitiveBoosts int64
	// CeilingViolations counts Ref/Mutex/RWMutex accesses from tasks
	// whose declared priority exceeded the primitive's (per-mode)
	// ceiling — the dynamic analogue of the state-typing rule (paper
	// Fig. 12) that Touch's inversion check is for futures.
	CeilingViolations int64
	// PoolHits and PoolMisses count task/future allocations served from
	// the worker-striped free lists versus from the heap. At steady
	// state on the serve path the hit rate approaches 1; with
	// Config.DisablePooling every allocation is a miss (the ablation's
	// observable).
	PoolHits   int64
	PoolMisses int64
	// ForwardedTouches counts forwarding hops: a touched future whose
	// value was itself a future handle, resolved by walking to the inner
	// future (or migrating a parked waiter onto it) instead of returning
	// control and re-parking — one count per hop, whether taken
	// synchronously by the toucher or at completion time by finish.
	ForwardedTouches int64
	// MasterKicks counts event-driven master reallocations: work was
	// submitted at a level below every worker's mandate (invisible to
	// all scans, which stop at the worker's floor) and the submitter
	// poked the master instead of letting the work wait out the quantum.
	MasterKicks int64
	// UpwardTakes counts tasks a worker ran from a level above its
	// assignment: ready higher-priority work served at a task boundary
	// rather than at the master's next reassignment.
	UpwardTakes int64
	// PreemptYields counts Checkpoint yields caused by ready work at a
	// level above the running task, as opposed to a reassignment of its
	// worker.
	PreemptYields int64
}

// Stats returns a snapshot of the scheduler's event counters.
func (rt *Runtime) Stats() SchedStats {
	return SchedStats{
		Spawns:     rt.stats.spawns.Load(),
		InlineRuns: rt.stats.inlineRuns.Load(),
		Promotions: rt.stats.promotions.Load(),
		Parks:      rt.stats.parks.Load(),
		Resumes:    rt.stats.resumes.Load(),
		Helps:      rt.stats.helps.Load(),
		Steals:     rt.stats.steals.Load(),
		Wakes:      rt.stats.wakes.Load(),

		MutexParks:        rt.stats.mutexParks.Load(),
		RWReadParks:       rt.stats.rwReadParks.Load(),
		RWWriteParks:      rt.stats.rwWriteParks.Load(),
		RWRevokes:         rt.stats.rwRevokes.Load(),
		Inherits:          rt.stats.inherits.Load(),
		TransitiveBoosts:  rt.stats.transBoosts.Load(),
		CeilingViolations: rt.stats.ceilings.Load(),
		PoolHits:          rt.stats.poolHits.Load(),
		PoolMisses:        rt.stats.poolMisses.Load(),
		ForwardedTouches:  rt.stats.forwards.Load(),
		MasterKicks:       rt.stats.masterKicks.Load(),
		UpwardTakes:       rt.stats.upwardTakes.Load(),
		PreemptYields:     rt.stats.preemptYields.Load(),
	}
}

func (s SchedStats) String() string {
	return fmt.Sprintf(
		"spawns=%d inline=%d promotions=%d parks=%d resumes=%d helps=%d steals=%d wakes=%d mutexparks=%d rwrparks=%d rwwparks=%d rwrevokes=%d inherits=%d transboosts=%d ceilings=%d poolhits=%d poolmisses=%d forwards=%d masterkicks=%d upwardtakes=%d preemptyields=%d",
		s.Spawns, s.InlineRuns, s.Promotions, s.Parks, s.Resumes, s.Helps, s.Steals, s.Wakes,
		s.MutexParks, s.RWReadParks, s.RWWriteParks, s.RWRevokes, s.Inherits, s.TransitiveBoosts, s.CeilingViolations,
		s.PoolHits, s.PoolMisses, s.ForwardedTouches, s.MasterKicks, s.UpwardTakes, s.PreemptYields)
}
