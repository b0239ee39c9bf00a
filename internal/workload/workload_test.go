package workload

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/icilk"
)

func runtimeFor(t *testing.T) *icilk.Runtime {
	t.Helper()
	rt := icilk.New(icilk.Config{Workers: 4, Levels: 1})
	t.Cleanup(rt.Shutdown)
	return rt
}

// inTask runs fn inside a task and waits for its value.
func inTask[T any](t *testing.T, rt *icilk.Runtime, fn func(c *icilk.Ctx) T) T {
	t.Helper()
	fut := icilk.Go(rt, nil, 0, "test", fn)
	v, err := icilk.Await(fut, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFib(t *testing.T) {
	rt := runtimeFor(t)
	got := inTask(t, rt, func(c *icilk.Ctx) int { return Fib(rt, c, 0, 22) })
	if got != 17711 {
		t.Errorf("Fib(22) = %d, want 17711", got)
	}
}

func TestMatMulAgainstSequential(t *testing.T) {
	rt := runtimeFor(t)
	n := 48
	a := RandomMatrix(n, 1)
	b := RandomMatrix(n, 2)
	got := inTask(t, rt, func(c *icilk.Ctx) *Matrix { return MatMul(rt, c, 0, a, b) })
	// Sequential reference.
	want := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				want.Set(i, j, want.At(i, j)+a.At(i, k)*b.At(k, j))
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := got.At(i, j) - want.At(i, j)
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("mismatch at (%d,%d): %f vs %f", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMergeSort(t *testing.T) {
	rt := runtimeFor(t)
	data := RandomInts(20000, 3)
	got := inTask(t, rt, func(c *icilk.Ctx) []int { return MergeSort(rt, c, 0, data) })
	if !sort.IntsAreSorted(got) {
		t.Fatal("output not sorted")
	}
	// Same multiset.
	want := append([]int(nil), data...)
	sort.Ints(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d differs", i)
		}
	}
	// Input untouched.
	if sort.IntsAreSorted(data) {
		t.Log("input happened to be sorted (unlikely)")
	}
}

// seqSW is the straightforward O(nm) Smith-Waterman for cross-checking.
func seqSW(a, b string) int {
	const (
		match    = 2
		mismatch = -1
		gap      = -1
	)
	h := make([][]int, len(a)+1)
	for i := range h {
		h[i] = make([]int, len(b)+1)
	}
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			diag := h[i-1][j-1]
			if a[i-1] == b[j-1] {
				diag += match
			} else {
				diag += mismatch
			}
			v := max(0, diag, h[i-1][j]+gap, h[i][j-1]+gap)
			h[i][j] = v
			if v > best {
				best = v
			}
		}
	}
	return best
}

func TestSmithWatermanAgainstSequential(t *testing.T) {
	rt := runtimeFor(t)
	a := RandomSeq(200, 4)
	b := RandomSeq(170, 5)
	got := inTask(t, rt, func(c *icilk.Ctx) int { return SmithWaterman(rt, c, 0, a, b) })
	want := seqSW(a, b)
	if got != want {
		t.Errorf("SW = %d, want %d", got, want)
	}
}

func TestSmithWatermanIdentical(t *testing.T) {
	rt := runtimeFor(t)
	s := RandomSeq(150, 6)
	got := inTask(t, rt, func(c *icilk.Ctx) int { return SmithWaterman(rt, c, 0, s, s) })
	if got != 2*len(s) {
		t.Errorf("self-alignment = %d, want %d", got, 2*len(s))
	}
}

// Property: parallel mergesort agrees with sort.Ints on random inputs.
func TestQuickMergeSortCorrect(t *testing.T) {
	rt := runtimeFor(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10000)
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(1000)
		}
		got := inTask(t, rt, func(c *icilk.Ctx) []int { return MergeSort(rt, c, 0, data) })
		want := append([]int(nil), data...)
		sort.Ints(want)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: parallel SW agrees with sequential SW on random pairs.
func TestQuickSmithWatermanCorrect(t *testing.T) {
	rt := runtimeFor(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomSeq(1+rng.Intn(180), seed)
		b := RandomSeq(1+rng.Intn(180), seed+1)
		got := inTask(t, rt, func(c *icilk.Ctx) int { return SmithWaterman(rt, c, 0, a, b) })
		return got == seqSW(a, b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestJobTypeString(t *testing.T) {
	names := map[JobType]string{JobMatMul: "matmul", JobFib: "fib", JobSort: "sort", JobSW: "sw"}
	for jt, want := range names {
		if jt.String() != want {
			t.Errorf("JobType(%d).String() = %q, want %q", jt, jt.String(), want)
		}
	}
}
