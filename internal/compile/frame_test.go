package compile

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/icilk"
	"repro/internal/parser"
	"repro/internal/prio"
)

// exampleSrc is the source of an examples/l4i program by name.
func exampleSrc(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "l4i", name+".l4i"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunAllocCeilings pins the heap allocations of one Run — conversion
// plus execution — on the examples, about 10% above what the frame
// stack, in-place command literals, id-only handles and a conversion
// that finds captures by scanning the capture list cost. Allocation
// creep in the evaluator fails here before it shows as throughput.
func TestRunAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts and drops pooled items")
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
	}{
		{"fib", 144},      // measured 131
		{"seq", 441},      // measured 401
		{"counter", 107},  // measured 97
		{"pipeline", 129}, // measured 117
	} {
		cp := mustCompile(t, exampleSrc(t, tc.name))
		mustRun(t, cp) // leaves an idle runtime and warm pools
		got := testing.AllocsPerRun(50, func() {
			if _, err := cp.Run(RunConfig{Workers: 2}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/run", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/run, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// minSteps is the smallest MaxSteps each example runs to completion
// under, measured on the heap-frame evaluator this one replaced: the
// frame stack and in-place command literals charge exactly the steps
// the old evaluator did.
var minSteps = map[string]int64{"fib": 136, "seq": 566, "counter": 36}

// TestStepCountPinned: each example succeeds at its pinned step budget
// and fails with the steps error one step below it. Every thread of
// these programs is joined, so the count is schedule-independent.
func TestStepCountPinned(t *testing.T) {
	for name, n := range minSteps {
		cp := mustCompile(t, exampleSrc(t, name))
		if _, err := cp.Run(RunConfig{Workers: 2, MaxSteps: n}); err != nil {
			t.Errorf("%s: MaxSteps %d: %v", name, n, err)
		}
		_, err := cp.Run(RunConfig{Workers: 2, MaxSteps: n - 1})
		if err == nil || !strings.Contains(err.Error(), "evaluation steps") {
			t.Errorf("%s: MaxSteps %d should run out of steps, got %v", name, n-1, err)
		}
	}
}

// escapeSrcs are programs whose closures outlive the frame that created
// them, so a frame stack that let a value point into a popped frame
// would read slots a later activation overwrote.
var escapeSrcs = map[string]string{
	// A lambda returned out of mk's frame, applied after other
	// activations have reused that frame's slots.
	"returned-lambda": `
priority p
main : (nat * nat) @ p = {
  let mk = fn x : nat => fn y : nat => ifz y { x ; k . k } in
  let f = mk 7 in
  let g = mk 9 in
  let junk = mk 100 in
  ret (f 0, g 3)
}`,
	// A closure stored in a ref by main and called from another thread.
	"ref-closure": `
priority p
main : nat @ p = {
  dcl cell : nat -> nat := fn z : nat => z in
  let mk = fn x : nat => fn y : nat => ifz y { x ; k . x } in
  w <- cmd[p]{ cell := mk 5 };
  h <- cmd[p]{ fcreate[p; nat] { f <- cmd[p]{ !cell }; ret (f 0) } };
  v <- cmd[p]{ ftouch h };
  ret v
}`,
	// A fix built in a popped frame and in a finished thread, recursing
	// through its recCell afterwards.
	"escaping-fix": `
priority p
main : (nat * nat) @ p = {
  let get = fn u : unit => fix f : nat -> nat is fn n : nat => ifz n { 3 ; m . f m } in
  let g = get () in
  h <- cmd[p]{ fcreate[p; nat -> nat] {
    ret (fix f : nat -> nat is fn n : nat => ifz n { 4 ; m . f m })
  } };
  k <- cmd[p]{ ftouch h };
  ret (g 5, k 6)
}`,
}

// TestFramePoppedClosures: closures that escape their creating frame
// agree with the simulator, run after run on recycled stack segments.
func TestFramePoppedClosures(t *testing.T) {
	for name, src := range escapeSrcs {
		t.Run(name, func(t *testing.T) {
			want, _ := simulate(t, mustParse(t, src))
			cp := mustCompile(t, src)
			for i := 0; i < 20; i++ {
				res := mustRun(t, cp)
				if !ast.ValueEqual(res.Value, want) {
					t.Fatalf("run %d: machine %s, icilk %s", i, want, res.Value)
				}
			}
		})
	}
}

// TestFrameStacksConcurrent: four goroutines run fib and seq at once on
// one configuration, so their tasks share the segment pool, and every
// run agrees with the simulator.
func TestFrameStacksConcurrent(t *testing.T) {
	type program struct {
		name string
		cp   *Prog
		want ast.Expr
	}
	var progs []program
	for _, name := range []string{"fib", "seq"} {
		src := exampleSrc(t, name)
		want, _ := simulate(t, mustParse(t, src))
		progs = append(progs, program{name, mustCompile(t, src), want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := progs[(g+i)%len(progs)]
				res, err := p.cp.Run(RunConfig{Workers: 2})
				if err != nil {
					t.Errorf("%s: %v", p.name, err)
					return
				}
				if !ast.ValueEqual(res.Value, p.want) || res.Stats.CeilingViolations != 0 {
					t.Errorf("%s: machine %s, icilk %s, %d ceiling violations",
						p.name, p.want, res.Value, res.Stats.CeilingViolations)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrameStackSegments drives the stack across segment boundaries:
// frames that overflow the inline buffer and a full segment land on
// fresh segments, popping returns to the segment below, and a segment
// goes back to the pool clear.
func TestFrameStackSegments(t *testing.T) {
	var s frameStack
	small := s.push(3)
	if len(small) != 3 || &small[0] != &s.inline[0] {
		t.Fatal("the first small frame is not on the inline buffer")
	}
	small[0] = vNat{n: 1}
	spill := s.push(inlineSlots) // does not fit beside small
	spillSeg := s.seg
	if spillSeg == nil || &spill[0] != &spillSeg.slots[0] {
		t.Fatal("an inline overflow did not start a pooled segment")
	}
	spill[inlineSlots-1] = vUnit{}
	huge := s.push(segSlots + 1)
	if len(huge) != segSlots+1 || s.seg.belowSeg != spillSeg {
		t.Fatal("an oversized frame did not get its own segment")
	}
	s.pop(huge)
	s.pop(spill)
	if s.seg != nil || s.top != 3 {
		t.Fatalf("popping back left seg=%v top=%d, want the inline buffer at 3", s.seg, s.top)
	}
	if small[0] != (vNat{n: 1}) {
		t.Error("a frame below the popped segments lost its slot")
	}
	for i, v := range spillSeg.slots {
		if v != nil {
			t.Fatalf("released segment slot %d not cleared: %v", i, v)
		}
	}
	s.pop(small)
	if s.top != 0 {
		t.Errorf("emptied stack: top=%d", s.top)
	}
}

// BenchmarkCorpusPipeline is the l4i_corpus loop in miniature: every
// example through parse, check and run.
func BenchmarkCorpusPipeline(b *testing.B) {
	var srcs []string
	for _, name := range []string{"fib", "seq", "counter", "pipeline"} {
		srcs = append(srcs, exampleSrc(b, name))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			prog, err := parser.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			cp, err := Compile(prog, true)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cp.Run(RunConfig{Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestStuckReportEvaluatesOnce: a stuck state reports the value it got
// stuck on instead of evaluating the scrutinee a second time to print
// it. The scrutinee here costs about 300 steps, so a second evaluation
// would push the run past its 400-step budget and turn the stuck report
// into a steps error. The checker rejects `!0`, so the program is
// assembled by hand.
func TestStuckReportEvaluatesOnce(t *testing.T) {
	var e ast.Expr = ast.Nat{N: 0}
	for i := 0; i < 150; i++ {
		e = ast.Let{X: "x", E1: ast.Nat{N: i}, E2: e}
	}
	p := prio.Const("p")
	cp := &Prog{
		Order:      prio.NewTotalOrder("p"),
		Main:       ast.Get{E: e},
		MainPrio:   p,
		LevelNames: []string{"p"},
		levelOf:    map[string]icilk.Priority{"p": 0},
		ceilOf:     map[string]icilk.Priority{},
	}
	_, err := cp.Run(RunConfig{Workers: 2, MaxSteps: 400})
	if err == nil || !strings.Contains(err.Error(), "dereference of non-reference value 0") {
		t.Errorf("want the stuck dereference of 0, got %v", err)
	}
}
