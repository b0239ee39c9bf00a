package icilk

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestShardedMapCeilings: the shard locks carry the map's per-mode
// ceilings — a read above the read ceiling and a write above the write
// ceiling are inversions, named after the shard lock.
func TestShardedMapCeilings(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 2, Levels: 3, Prioritize: true})
	sm := NewShardedMap[int](rt, 1, 0, "sm")
	for _, tc := range []struct {
		name  string
		prio  Priority
		op    func(c *Ctx)
		fails bool
	}{
		{"write at write ceiling", 0, func(c *Ctx) { sm.Update(c, "k", func(m map[string]int) { m["k"] = 1 }) }, false},
		{"read at read ceiling", 1, func(c *Ctx) { sm.Get(c, "k") }, false},
		{"range at read ceiling", 1, func(c *Ctx) { sm.Range(c, func(map[string]int) {}) }, false},
		{"write above write ceiling", 1, func(c *Ctx) { sm.Update(c, "k", func(map[string]int) {}) }, true},
		{"read above read ceiling", 2, func(c *Ctx) { sm.Get(c, "k") }, true},
	} {
		f := Go(rt, nil, tc.prio, tc.name, func(c *Ctx) int { tc.op(c); return 0 })
		_, err := Await(f, 5*time.Second)
		var inv *PriorityInversionError
		switch {
		case !tc.fails && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.fails && !errors.As(err, &inv):
			t.Errorf("%s: want PriorityInversionError, got %v", tc.name, err)
		case tc.fails && !strings.HasPrefix(inv.Name, "sm/"):
			t.Errorf("%s: violation names lock %q, want a sm/<i> shard", tc.name, inv.Name)
		}
	}
}

// TestShardedMapRangeVisitsEvery: every key written through Update is
// found by Get and visited exactly once by Range.
func TestShardedMapRangeVisitsEvery(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 4, Levels: 1})
	sm := NewShardedMap[int](rt, 0, 0, "sm")
	const n = 200
	seen := map[string]int{}
	f := Go(rt, nil, 0, "fill", func(c *Ctx) int {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%d", i)
			sm.Update(c, k, func(m map[string]int) { m[k] = i })
		}
		for i := 0; i < n; i++ {
			if v, ok := sm.Get(c, fmt.Sprintf("key-%d", i)); !ok || v != i {
				t.Errorf("Get(key-%d) = %d, %v", i, v, ok)
			}
		}
		sm.Range(c, func(m map[string]int) {
			for k := range m {
				seen[k]++
			}
		})
		return 0
	})
	if _, err := Await(f, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("Range visited %d keys, want %d", len(seen), n)
	}
	for k, times := range seen {
		if times != 1 {
			t.Errorf("Range visited %s %d times", k, times)
		}
	}
}

// TestShardedMapShardCount: the map shards exactly as StripedCounter
// stripes — one layout rule for both.
func TestShardedMapShardCount(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 40} {
		rt := testRuntime(t, Config{Workers: workers, Levels: 1})
		got := NewShardedMap[int](rt, 0, 0, "sm").Shards()
		if want := len(NewStripedCounter(rt, 0).stripes); got != want {
			t.Errorf("workers=%d: %d shards, StripedCounter has %d stripes", workers, got, want)
		}
	}
}

// TestShardedMapZeroAllocs: a Get plus an Update whose callback captures
// its arguments allocates nothing once the key exists — the callback
// closure stays on the caller's stack.
func TestShardedMapZeroAllocs(t *testing.T) {
	rt := testRuntime(t, Config{Workers: 1, Levels: 1})
	sm := NewShardedMap[int](rt, 0, 0, "sm")
	var allocs float64
	f := Go(rt, nil, 0, "allocs", func(c *Ctx) int {
		key, v := "k", 0
		allocs = testing.AllocsPerRun(1000, func() {
			v++
			sm.Update(c, key, func(m map[string]int) { m[key] = v })
			if got, _ := sm.Get(c, key); got != v {
				t.Errorf("Get = %d, want %d", got, v)
			}
		})
		return 0
	})
	if _, err := Await(f, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Update+Get: %.2f allocs/op, want 0", allocs)
	}
}
