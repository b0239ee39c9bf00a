package compile

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/icilk"
	"repro/internal/machine"
	"repro/internal/parser"
)

// twoLevelSrc writes a cell from both priorities and joins both
// threads: a ceiling check left over from an earlier run would show as a
// violation, stale state as a wrong value.
const twoLevelSrc = `
priority lo
priority hi
order lo < hi
main : nat @ lo = {
  dcl c : nat := 1 in
  h <- cmd[lo]{ fcreate[hi; nat] { w <- cmd[hi]{ c := 5 }; ret 2 } };
  g <- cmd[lo]{ fcreate[lo; nat] { ret 3 } };
  a <- cmd[lo]{ ftouch h };
  b <- cmd[lo]{ ftouch g };
  v <- cmd[lo]{ !c };
  ret v
}`

// simulate runs prog on the abstract machine and returns main's value
// and the number of threads it created.
func simulate(t *testing.T, prog *parser.Program) (ast.Expr, int64) {
	t.Helper()
	mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
	if err := mc.Run(machine.Prompt{P: 2}, 5_000_000); err != nil {
		t.Fatalf("machine run: %v", err)
	}
	v, ok := mc.FinalValue("main")
	if !ok {
		t.Fatal("machine run left main unfinished")
	}
	return v, int64(len(mc.ThreadOrder()))
}

// idleFor returns the idle runtime Run would take for cfg, or nil.
func idleFor(cp *Prog, cfg RunConfig) *icilk.Runtime {
	idleMu.Lock()
	defer idleMu.Unlock()
	return idleRuntimes[cp.runtimeConfig(cfg.withDefaults())]
}

// dropIdle shuts down the idle runtime Run would take for cfg, so the
// next run starts a fresh one.
func dropIdle(cp *Prog, cfg RunConfig) {
	key := cp.runtimeConfig(cfg.withDefaults())
	idleMu.Lock()
	rt := idleRuntimes[key]
	delete(idleRuntimes, key)
	idleMu.Unlock()
	if rt != nil {
		rt.Shutdown()
	}
}

// TestReuseStatsAreDeltas: the second of two back-to-back runs takes the
// runtime the first one left, and still reports only its own spawns.
func TestReuseStatsAreDeltas(t *testing.T) {
	cp := mustCompile(t, twoLevelSrc)
	cfg := RunConfig{Workers: 2}
	r1 := mustRun(t, cp)
	rt := idleFor(cp, cfg)
	if rt == nil {
		t.Fatal("a clean run left no idle runtime")
	}
	r2 := mustRun(t, cp)
	if idleFor(cp, cfg) != rt {
		t.Fatal("the second run did not reuse the first run's runtime")
	}
	if r1.Stats.Spawns != 3 || r2.Stats.Spawns != r1.Stats.Spawns {
		t.Errorf("spawns per run = %d then %d, want 3 both times", r1.Stats.Spawns, r2.Stats.Spawns)
	}
}

// TestReuseAfterFailure: a run that fails — out of steps, or on the
// dynamic inversion check of a -noprio program — shuts its runtime down
// instead of returning it, and a clean run on the same configuration
// agrees with the simulator with no ceiling violations.
func TestReuseAfterFailure(t *testing.T) {
	clean := mustCompile(t, twoLevelSrc)
	want, _ := simulate(t, mustParse(t, twoLevelSrc))
	cfg := RunConfig{Workers: 2}

	diverge := mustCompile(t, `
priority lo
priority hi
order lo < hi
main : nat @ lo = {
  let loop = fix f : nat -> nat is fn n : nat => f n in
  ret loop 1
}`)
	inversion, err := Compile(mustParse(t, `
priority low
priority high
order low < high
main : nat @ high = {
  h <- cmd[high]{ fcreate[low; nat] { ret 1 } };
  r <- cmd[high]{ ftouch h };
  ret r
}`), false)
	if err != nil {
		t.Fatalf("-noprio compile: %v", err)
	}

	for _, tc := range []struct {
		name string
		fail func(t *testing.T) error
	}{
		{"MaxSteps", func(*testing.T) error {
			_, err := diverge.Run(RunConfig{Workers: 2, MaxSteps: 10_000})
			return err
		}},
		{"inversion", func(t *testing.T) error {
			_, err := inversion.Run(cfg)
			if err != nil && !IsPriorityInversion(err) {
				t.Errorf("not a priority inversion: %v", err)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustRun(t, clean) // leaves an idle runtime for the failing run to take
			if err := tc.fail(t); err == nil {
				t.Fatal("failing program ran clean")
			}
			if idleFor(clean, cfg) != nil {
				t.Fatal("a failed run returned its runtime to the idle list")
			}
			res := mustRun(t, clean)
			if !ast.ValueEqual(res.Value, want) {
				t.Errorf("value %s, want the simulator's %s", res.Value, want)
			}
			if res.Stats.CeilingViolations != 0 {
				t.Errorf("%d ceiling violations after a failed run", res.Stats.CeilingViolations)
			}
		})
	}
}

// TestReuseLeavesNoGoroutines: many runs across several configurations
// hold at most one idle runtime per configuration, so the goroutine
// count ends within a constant of where it started.
func TestReuseLeavesNoGoroutines(t *testing.T) {
	cp := mustCompile(t, twoLevelSrc)
	cfgs := []RunConfig{{Workers: 2}, {Workers: 3}, {Workers: 2, Baseline: true}}
	start := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		if _, err := cp.Run(cfgs[i%len(cfgs)]); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	// Each idle runtime keeps its workers; a retiring fiber may still be
	// on its way out.
	limit := start + len(cfgs)*3 + 4
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines went from %d to %d over 1000 runs, want at most %d",
				start, runtime.NumGoroutine(), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReuseConcurrentCorpus: four goroutines run the whole corpus at
// once on one configuration, so runs start new runtimes, hand them back
// and take each other's, and every run still agrees with the simulator.
func TestReuseConcurrentCorpus(t *testing.T) {
	type program struct {
		name    string
		cp      *Prog
		want    ast.Expr
		threads int64
	}
	var progs []program
	for _, f := range corpus(t) {
		prog := parseFile(t, f)
		cp, err := Compile(prog, true)
		if err != nil {
			t.Fatalf("%s: compile: %v", f, err)
		}
		want, threads := simulate(t, prog)
		progs = append(progs, program{filepath.Base(f), cp, want, threads})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range progs {
				res, err := p.cp.Run(RunConfig{Workers: 2})
				if err != nil {
					t.Errorf("%s: %v", p.name, err)
					continue
				}
				if !ast.ValueEqual(res.Value, p.want) {
					t.Errorf("%s: machine %s, icilk %s", p.name, p.want, res.Value)
				}
				if res.Stats.CeilingViolations != 0 || res.Threads != p.threads {
					t.Errorf("%s: %d ceiling violations, %d threads (want 0, %d)",
						p.name, res.Stats.CeilingViolations, res.Threads, p.threads)
				}
			}
		}()
	}
	wg.Wait()
}
