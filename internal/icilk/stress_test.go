package icilk

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressChurn churns Go/Touch/IO/Done/Yield/WaitIdle across all
// levels of the prioritized scheduler. Run with -race it doubles as
// the memory-safety gauntlet for the lock-free deques, the parking
// protocol, and the promote/resume handshake.
func TestStressChurn(t *testing.T) {
	t.Run("chaselev", func(t *testing.T) {
		rt := New(Config{
			Workers: 4, Levels: 3, Prioritize: true,
		})
		defer rt.Shutdown()

		const roots = 120
		var completed atomic.Int64
		var futs []Future[int]
		for i := 0; i < roots; i++ {
			i := i
			p := Priority(i % 3)
			futs = append(futs, Go(rt, nil, p, "root", func(c *Ctx) int {
				// A child at the same level: usually resolved by
				// touch-time helping.
				child := Go(rt, c, p, "child", func(c *Ctx) int {
					inner := Go(rt, c, p, "inner", func(*Ctx) int { return i })
					return inner.Touch(c)
				})
				// A higher-priority sibling through the inject queue.
				hi := Go(rt, c, Priority(2), "hi", func(*Ctx) int { return 2 * i })
				// An IO future: always a real park/resume cycle.
				io := IO(rt, p, time.Duration(i%5)*100*time.Microsecond,
					func() int { return -i })
				if child.Done() {
					if v := child.Touch(c); v != i {
						t.Errorf("done child value = %d, want %d", v, i)
					}
				}
				c.Yield()
				sum := child.Touch(c) + io.Touch(c)
				c.Checkpoint()
				sum += hi.Touch(c)
				completed.Add(1)
				return sum
			}))
		}
		for i, f := range futs {
			v, err := Await(f, 30*time.Second)
			if err != nil {
				t.Fatalf("root %d: %v", i, err)
			}
			if want := i + -i + 2*i; v != want {
				t.Errorf("root %d = %d, want %d", i, v, want)
			}
		}
		if err := rt.WaitIdle(10 * time.Second); err != nil {
			t.Error(err)
		}
		if completed.Load() != roots {
			t.Errorf("completed = %d, want %d", completed.Load(), roots)
		}
	})
}

// TestDifferentialDeques runs a deterministic spawn tree across workers
// and levels and checks its completion set against the leaves the tree
// must produce: width·2^depth values, each exactly once, so a task the
// deques lost or ran twice shows up as a missing or repeated leaf.
func TestDifferentialDeques(t *testing.T) {
	const levels, width, depth = 2, 16, 4
	rt := New(Config{Workers: 4, Levels: levels, Prioritize: true})
	defer rt.Shutdown()
	var mu sync.Mutex
	got := map[int]bool{}
	record := func(v int) {
		mu.Lock()
		if got[v] {
			t.Errorf("value %d completed twice", v)
		}
		got[v] = true
		mu.Unlock()
	}
	var futs []Future[int]
	for i := 0; i < width; i++ {
		futs = append(futs, Go(rt, nil, Priority(i%levels), "tree", func(c *Ctx) int {
			var spawn func(c *Ctx, id, d int) int
			spawn = func(c *Ctx, id, d int) int {
				if d == 0 {
					record(id)
					return id
				}
				l := Go(rt, c, c.Priority(), "l", func(c *Ctx) int { return spawn(c, 2*id, d-1) })
				r := spawn(c, 2*id+1, d-1)
				return l.Touch(c) + r
			}
			return spawn(c, (i+2)<<depth, depth)
		}))
	}
	for _, f := range futs {
		if _, err := Await(f, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Root i's leaves are its id shifted by depth plus every depth-bit
	// suffix; the root ids keep the ranges disjoint.
	want := width << depth
	for i := 0; i < width; i++ {
		for j := 0; j < 1<<depth; j++ {
			if v := (i+2)<<(2*depth) + j; !got[v] {
				t.Errorf("leaf %d never completed", v)
			}
		}
	}
	if len(got) != want {
		t.Errorf("%d distinct leaves completed, want %d", len(got), want)
	}
}

// TestSchedStatsCounters checks that the event counters move and stay
// consistent on a workload that exercises every path.
func TestSchedStatsCounters(t *testing.T) {
	rt := New(Config{Workers: 2, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	fut := Go(rt, nil, 0, "root", func(c *Ctx) int {
		child := Go(rt, c, 0, "child", func(*Ctx) int { return 1 })
		io := IO(rt, 0, time.Millisecond, func() int { return 2 })
		return child.Touch(c) + io.Touch(c) // the IO touch must park
	})
	if _, err := Await(fut, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if s.Spawns != 2 {
		t.Errorf("spawns = %d, want 2", s.Spawns)
	}
	if s.InlineRuns != 1 {
		// The child never blocks; the root parks on the IO touch and so
		// does not count as an inline run.
		t.Errorf("inline runs = %d, want 1", s.InlineRuns)
	}
	if s.Parks == 0 || s.Promotions == 0 || s.Resumes == 0 {
		t.Errorf("park/promote/resume counters did not move: %s", s)
	}
	if s.Parks < s.Resumes {
		t.Errorf("more resumes than parks: %s", s)
	}
}

// TestInlineFastPathNoGoroutines checks the tentpole claim directly: a
// spawn/touch chain that never blocks must not promote anything.
func TestInlineFastPathNoGoroutines(t *testing.T) {
	rt := New(Config{Workers: 1, Levels: 1})
	defer rt.Shutdown()
	fut := Go(rt, nil, 0, "root", func(c *Ctx) int {
		sum := 0
		for i := 0; i < 100; i++ {
			child := Go(rt, c, 0, "child", func(*Ctx) int { return 1 })
			sum += child.Touch(c)
		}
		return sum
	})
	v, err := Await(fut, 5*time.Second)
	if err != nil || v != 100 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	s := rt.Stats()
	if s.Helps != 100 {
		t.Errorf("helps = %d, want 100 (every touch resolved inline)", s.Helps)
	}
	if s.Promotions != 0 || s.Parks != 0 {
		t.Errorf("fast path promoted or parked: %s", s)
	}
}

// BenchmarkSpawnTouch is the acceptance microbenchmark: one spawn plus
// one touch per iteration, the never-blocking fast path. (The root-level
// BenchmarkRuntimeSpawnTouch measures the same shape through the public
// module surface.)
func BenchmarkSpawnTouch(b *testing.B) {
	rt := New(Config{Workers: 4, Levels: 2, Prioritize: true})
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	fut := Go(rt, nil, 1, "bench", func(c *Ctx) int {
		for i := 0; i < b.N; i++ {
			child := Go(rt, c, 1, "child", func(*Ctx) int { return i })
			child.Touch(c)
		}
		return 0
	})
	if _, err := Await(fut, 10*time.Minute); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParkResume measures the promote/park/resume slow path: every
// iteration touches an already-pending IO future, forcing a park.
func BenchmarkParkResume(b *testing.B) {
	rt := New(Config{Workers: 2, Levels: 1})
	defer rt.Shutdown()
	b.ResetTimer()
	fut := Go(rt, nil, 0, "bench", func(c *Ctx) int {
		for i := 0; i < b.N; i++ {
			io := IO(rt, 0, 0, func() int { return i })
			io.Touch(c)
		}
		return 0
	})
	if _, err := Await(fut, 10*time.Minute); err != nil {
		b.Fatal(err)
	}
}
