package icilk

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file pin the prompt worker loop: a worker serves the
// highest ready level at every task boundary, and Checkpoint yields to a
// higher level's injection queue. Each runs with Quantum: time.Hour, so
// the master acts on kicks only (level-0 work landing under a level-1
// mandate) and nothing but the task-boundary path can serve a level-1
// arrival while level 0 has work. Where the order matters, the level-0
// work queued behind the running tasks waits for the level-1 task: served
// floor-first, it would hold every worker and the wait would time out.

const promptWait = 5 * time.Second

// waitFlag spins until flag is set. If it is not set in time the test
// fails, and the flag is set so that everything else waiting on it ends.
func waitFlag(t *testing.T, flag *atomic.Bool, what string) {
	deadline := time.Now().Add(promptWait)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Errorf("gave up waiting for %s", what)
			flag.Store(true)
			return
		}
		runtime.Gosched()
	}
}

// checkpointUntil is a long task's inner loop: Checkpoint, count the
// call, until flag is set.
func checkpointUntil(t *testing.T, c *Ctx, flag *atomic.Bool, calls *atomic.Int64) {
	for deadline := time.Now().Add(promptWait); !flag.Load(); calls.Add(1) {
		if time.Now().After(deadline) {
			t.Error("the level-1 arrival never overtook the Checkpoint loop")
			return
		}
		c.Checkpoint()
	}
}

func awaitAll(t *testing.T, futs ...Future[int]) {
	t.Helper()
	for _, f := range futs {
		if _, err := Await(f, 4*promptWait); err != nil {
			t.Fatal(err)
		}
	}
}

// occupy starts one level-0 task per worker and returns once each is
// running; the tasks end when release is set.
func occupy(t *testing.T, rt *Runtime, release *atomic.Bool) []Future[int] {
	t.Helper()
	running := make(chan struct{}, rt.Workers())
	var futs []Future[int]
	for range rt.Workers() {
		futs = append(futs, Go(rt, nil, 0, "running", func(*Ctx) int {
			running <- struct{}{}
			waitFlag(t, release, "the release of the running tasks")
			return 0
		}))
	}
	for range rt.Workers() {
		select {
		case <-running:
		case <-time.After(promptWait):
			t.Fatal("the level-0 tasks never occupied every worker")
		}
	}
	return futs
}

// TestHigherLevelServedAtTaskBoundary: both workers are draining a
// level-0 backlog when a level-1 task arrives from outside. The first
// worker to finish its task takes the arrival, not the next backlog
// task.
func TestHigherLevelServedAtTaskBoundary(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true, Quantum: time.Hour})
	var release, hiStarted atomic.Bool
	futs := occupy(t, rt, &release)
	for range 4 * rt.Workers() {
		futs = append(futs, Go(rt, nil, 0, "backlog", func(*Ctx) int {
			waitFlag(t, &hiStarted, "the level-1 arrival to start ahead of the level-0 backlog")
			return 0
		}))
	}
	futs = append(futs, Go(rt, nil, 1, "hi", func(*Ctx) int {
		hiStarted.Store(true)
		return 0
	}))
	release.Store(true)
	awaitAll(t, futs...)
	if s := rt.Stats(); s.UpwardTakes < 1 {
		t.Errorf("UpwardTakes = %d, want >= 1", s.UpwardTakes)
	}
}

// TestHigherLevelServedBoostedHolder is the same for a requeue rather
// than an arrival: a level-0 lock holder, boosted by a level-1 waiter
// while parked, re-enters at level 1 when its gate completes and is
// resumed at the next task boundary, ahead of the level-0 backlog; so is
// the waiter it hands the lock to.
func TestHigherLevelServedBoostedHolder(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 2, Prioritize: true, Quantum: time.Hour})
	m := NewMutex(rt, 1, "handoff")
	gate := NewPromise[int](rt, 0)
	holder := Go(rt, nil, 0, "holder", func(c *Ctx) int {
		m.Lock(c)
		gate.Future().Touch(c) // park while holding
		m.Unlock(c)
		return 0
	})
	parks := func() int64 { return rt.Stats().Parks }
	waitStat(t, "parks (the holder, on its gate)", parks, 1)
	var waiterDone atomic.Bool
	waiter := Go(rt, nil, 1, "waiter", func(c *Ctx) int {
		m.Lock(c)
		m.Unlock(c)
		waiterDone.Store(true)
		return 0
	})
	waitStat(t, "parks (the waiter, on the mutex)", parks, 2)
	if n := rt.Stats().Inherits; n != 1 {
		t.Fatalf("Inherits = %d with the waiter parked behind the holder, want 1", n)
	}

	var release atomic.Bool
	futs := occupy(t, rt, &release)
	futs = append(futs, holder, waiter, Go(rt, nil, 0, "backlog", func(*Ctx) int {
		waitFlag(t, &waiterDone, "the boosted holder and its waiter to run ahead of the level-0 backlog")
		return 0
	}))
	gate.Complete(0)
	release.Store(true)
	awaitAll(t, futs...)
}

// TestCheckpointYieldsToHigherLevel: one worker, one long level-0 task
// that never returns to the scheduler except through Checkpoint. A
// level-1 arrival overtakes it, at the price of exactly one yield.
func TestCheckpointYieldsToHigherLevel(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 2, Prioritize: true, Quantum: time.Hour})
	var hiDone atomic.Bool
	var calls atomic.Int64
	looping := make(chan struct{})
	lo := Go(rt, nil, 0, "lo", func(c *Ctx) int {
		close(looping)
		checkpointUntil(t, c, &hiDone, &calls)
		return 0
	})
	<-looping
	hi := Go(rt, nil, 1, "hi", func(*Ctx) int {
		hiDone.Store(true)
		return 0
	})
	awaitAll(t, hi, lo)
	if s := rt.Stats(); s.PreemptYields != 1 {
		t.Errorf("PreemptYields = %d, want 1", s.PreemptYields)
	}
}

// TestCheckpointYieldsBoundedPerArrival guards against yield storms.
// Two workers each run a level-0 Checkpoint loop when one level-1 task
// arrives: both may see it queued and yield, but the worker that takes
// it empties the queue, so the loop that keeps running beside it — a
// thousand more Checkpoints while the arrival holds its worker — yields
// no more. A task at the top level has no level to scan and does not
// yield to its peers.
func TestCheckpointYieldsBoundedPerArrival(t *testing.T) {
	t.Run("oneArrival", func(t *testing.T) {
		rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true, Quantum: time.Hour})
		var calls atomic.Int64
		var hiDone atomic.Bool
		looping := make(chan struct{}, rt.Workers())
		var futs []Future[int]
		for range rt.Workers() {
			futs = append(futs, Go(rt, nil, 0, "lo", func(c *Ctx) int {
				looping <- struct{}{}
				checkpointUntil(t, c, &hiDone, &calls)
				return 0
			}))
		}
		for range rt.Workers() {
			<-looping
		}
		futs = append(futs, Go(rt, nil, 1, "hi", func(*Ctx) int {
			target := calls.Load() + 1000
			for deadline := time.Now().Add(promptWait); calls.Load() < target; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no Checkpoint loop kept running beside the level-1 task")
					break
				}
			}
			hiDone.Store(true)
			return 0
		}))
		awaitAll(t, futs...)
		if y := rt.Stats().PreemptYields; y < 1 || y > int64(rt.Workers()) {
			t.Errorf("PreemptYields = %d for one arrival, want 1..%d", y, rt.Workers())
		}
	})

	t.Run("topLevel", func(t *testing.T) {
		rt := testRuntime(t, Config{Workers: 1, Levels: 2, Prioritize: true, Quantum: time.Hour})
		var queued, peerRan atomic.Bool
		running := make(chan struct{})
		top := Go(rt, nil, 1, "top", func(c *Ctx) int {
			close(running)
			waitFlag(t, &queued, "the peer to be queued")
			for range 1000 {
				c.Checkpoint()
			}
			if peerRan.Load() {
				t.Error("a top-level task yielded to a peer at its own level")
			}
			return 0
		})
		<-running
		peer := Go(rt, nil, 1, "peer", func(*Ctx) int {
			peerRan.Store(true)
			return 0
		})
		queued.Store(true)
		awaitAll(t, top, peer)
		if y := rt.Stats().PreemptYields; y != 0 {
			t.Errorf("PreemptYields = %d at the top level, want 0", y)
		}
	})
}
