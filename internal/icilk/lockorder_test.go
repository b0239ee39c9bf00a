package icilk

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// TestLockOrderABBAFlaggedOnLuckyRun is the recorder's reason to exist:
// the two critical sections run strictly one after the other — no
// interleaving, no contention, no deadlock possible on THIS run — and
// the recorder still flags the AB/BA ordering, because an adversarial
// schedule could interleave them into a real circular wait.
func TestLockOrderABBAFlaggedOnLuckyRun(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()
	A := NewMutex(rt, 1, "ordA")
	B := NewMutex(rt, 1, "ordB")

	ab := Go(rt, nil, 0, "ab", func(c *Ctx) int {
		A.Lock(c)
		B.Lock(c)
		B.Unlock(c)
		A.Unlock(c)
		return 0
	})
	if _, err := Await(ab, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Only after ab fully finished: the reversed nesting. Sequential, so
	// the run is "lucky" by construction.
	ba := Go(rt, nil, 0, "ba", func(c *Ctx) int {
		B.Lock(c)
		A.Lock(c)
		A.Unlock(c)
		B.Unlock(c)
		return 0
	})
	if _, err := Await(ba, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	v := rt.LockOrderViolations()
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	for _, want := range []string{"potential deadlock", `"ordA"`, `"ordB"`} {
		if !strings.Contains(v[0], want) {
			t.Errorf("violation %q does not mention %s", v[0], want)
		}
	}
}

// TestLockOrderConsistentNestingSilent is the no-false-positive half:
// concurrent tasks nest three Mutexes and an RWMutex (both modes) in
// one consistent global order, including TryLock and re-nested pairs;
// the recorder must stay silent, which testRuntime's cleanup asserts.
func TestLockOrderConsistentNestingSilent(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 2, Prioritize: true, Debug: true})
	rw := NewRWMutex(rt, 1, 1, "ordRW")
	A := NewMutex(rt, 1, "ordA")
	B := NewMutex(rt, 1, "ordB")
	C := NewMutex(rt, 1, "ordC")

	var futs []Future[int]
	for i := 0; i < 12; i++ {
		i := i
		futs = append(futs, Go(rt, nil, Priority(i%2), "nest", func(c *Ctx) int {
			for j := 0; j < 20; j++ {
				switch (i + j) % 3 {
				case 0: // full chain, read-mode front
					rw.RLock(c)
					A.Lock(c)
					B.Lock(c)
					C.Lock(c)
					C.Unlock(c)
					B.Unlock(c)
					A.Unlock(c)
					rw.RUnlock(c)
				case 1: // suffix of the order, write-mode front
					rw.Lock(c)
					B.Lock(c)
					B.Unlock(c)
					rw.Unlock(c)
				default: // TryLock obeys the same order
					A.Lock(c)
					if C.TryLock(c) {
						C.Unlock(c)
					}
					A.Unlock(c)
				}
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLockOrderReadReacquireFlagged: a task RLocking a lock it already
// read-holds works on a lucky run (and on sync.RWMutex too), but
// deadlocks the moment a writer queues between the two acquires. The
// recorder reports it as a self-loop.
func TestLockOrderReadReacquireFlagged(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()
	rw := NewRWMutex(rt, 1, 1, "ordRR")
	f := Go(rt, nil, 0, "rr", func(c *Ctx) int {
		rw.RLock(c)
		rw.RLock(c) // reentrant read: the latent hazard
		rw.RUnlock(c)
		rw.RUnlock(c)
		return 0
	})
	if _, err := Await(f, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	v := rt.LockOrderViolations()
	if len(v) != 1 || !strings.Contains(v[0], "reacquire") || !strings.Contains(v[0], `"ordRR"`) {
		t.Errorf("violations = %v, want one reacquire report naming ordRR", v)
	}
}

// stressLocks builds the fixed partial order the randomized stress
// tests draw pairs from: mutexes and RWMutexes interleaved, ranked by
// index.
func stressLocks(rt *Runtime) []interface{ lockLabel() string } {
	return []interface{ lockLabel() string }{
		NewMutex(rt, 1, "stress/0"),
		NewRWMutex(rt, 1, 1, "stress/1"),
		NewMutex(rt, 1, "stress/2"),
		NewMutex(rt, 1, "stress/3"),
		NewRWMutex(rt, 1, 1, "stress/4"),
		NewMutex(rt, 1, "stress/5"),
	}
}

func stressAcquire(c *Ctx, l interface{ lockLabel() string }, read bool) {
	switch m := l.(type) {
	case *Mutex:
		m.Lock(c)
	case *RWMutex:
		if read {
			m.RLock(c)
		} else {
			m.Lock(c)
		}
	}
}

func stressRelease(c *Ctx, l interface{ lockLabel() string }, read bool) {
	switch m := l.(type) {
	case *Mutex:
		m.Unlock(c)
	case *RWMutex:
		if read {
			m.RUnlock(c)
		} else {
			m.Unlock(c)
		}
	}
}

// TestLockOrderPartialOrderStressSilent: many tasks acquire random lock
// PAIRS drawn from the fixed partial order, always low rank before high
// rank — the discipline that provably cannot deadlock. With Debug on,
// the deadlock walk must never fire (no cycle ever forms) and the
// recorder must stay silent (every observed edge points up-rank), which
// testRuntime's cleanup asserts. This is the -race workout for the
// recorder's hot-path hooks.
func TestLockOrderPartialOrderStressSilent(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 2, Prioritize: true, Debug: true})
	locks := stressLocks(rt)

	const tasks, iters = 16, 40
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		futs = append(futs, Go(rt, nil, Priority(i%2), "partial", func(c *Ctx) int {
			for n := 0; n < iters; n++ {
				lo := rng.Intn(len(locks) - 1)
				hi := lo + 1 + rng.Intn(len(locks)-lo-1)
				loRead, hiRead := rng.Intn(2) == 0, rng.Intn(2) == 0
				stressAcquire(c, locks[lo], loRead)
				stressAcquire(c, locks[hi], hiRead)
				stressRelease(c, locks[hi], hiRead)
				stressRelease(c, locks[lo], loRead)
				if n%8 == 0 {
					c.Checkpoint()
				}
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLockOrderShuffledStressFires is the firing twin: the same pair
// workload with the rank discipline deliberately shuffled (a seeded
// coin flips the pair), second acquire by TryLock so no run can
// actually deadlock — then one deterministic reversed pair to pin the
// cycle regardless of TryLock luck. The recorder must report at least
// one order cycle.
func TestLockOrderShuffledStressFires(t *testing.T) {
	rt := New(Config{Workers: 4, Levels: 2, Prioritize: true, Debug: true})
	defer rt.Shutdown()
	locks := stressLocks(rt)

	const tasks, iters = 8, 30
	var futs []Future[int]
	for i := 0; i < tasks; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 100))
		futs = append(futs, Go(rt, nil, Priority(i%2), "shuffled", func(c *Ctx) int {
			for n := 0; n < iters; n++ {
				a := rng.Intn(len(locks))
				b := rng.Intn(len(locks))
				if a == b {
					continue
				}
				// First acquire blocks while holding nothing; second is a
				// TryLock — records the hold→acquire edge on success,
				// cannot wait, so no circular wait can close even with the
				// order shuffled.
				first := locks[a]
				stressAcquire(c, first, false)
				if m, ok := locks[b].(*Mutex); ok {
					if m.TryLock(c) {
						m.Unlock(c)
					}
				}
				stressRelease(c, first, false)
			}
			return 0
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic closer (everything above has joined, so both
	// blocking acquires are uncontended): stress/0 → stress/2 and back.
	for _, pair := range [][2]int{{0, 2}, {2, 0}} {
		pair := pair
		f := Go(rt, nil, 0, "closer", func(c *Ctx) int {
			stressAcquire(c, locks[pair[0]], false)
			stressAcquire(c, locks[pair[1]], false)
			stressRelease(c, locks[pair[1]], false)
			stressRelease(c, locks[pair[0]], false)
			return 0
		})
		if _, err := Await(f, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	v := rt.LockOrderViolations()
	if len(v) == 0 {
		t.Fatal("shuffled-order stress recorded no violations")
	}
	found := false
	for _, s := range v {
		if strings.Contains(s, "potential deadlock") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations %v contain no order cycle", v)
	}
}

// TestForcedABBAOrderingFailsBuild is CI's tamper negative-check: with
// ICILK_FORCE_ABBA=1 it records a forced AB/BA ordering on a
// testRuntime, whose cleanup then fails the test, so `go test` exits
// nonzero — the CI step asserts exactly that, proving the recorder and
// the cleanup assertion can actually fail a build. Skipped in normal
// runs.
func TestForcedABBAOrderingFailsBuild(t *testing.T) {
	if os.Getenv("ICILK_FORCE_ABBA") == "" {
		t.Skip("tamper check only: set ICILK_FORCE_ABBA=1 to record a forced AB/BA ordering and fail at cleanup")
	}
	rt := testRuntime(t, Config{Workers: 2, Levels: 2, Prioritize: true, Debug: true})
	A := NewMutex(rt, 1, "forcedA")
	B := NewMutex(rt, 1, "forcedB")
	for _, order := range [][2]*Mutex{{A, B}, {B, A}} {
		order := order
		f := Go(rt, nil, 0, "forced", func(c *Ctx) int {
			order[0].Lock(c)
			order[1].Lock(c)
			order[1].Unlock(c)
			order[0].Unlock(c)
			return 0
		})
		if _, err := Await(f, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
