package compile

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/machine"
	"repro/internal/parser"
)

// corpus returns every .l4i program in the repository: the runnable
// examples plus the six case-study models the evaluation uses.
func corpus(t *testing.T) []string {
	t.Helper()
	files, err := Corpus("../..")
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func parseFile(t *testing.T, path string) *parser.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: parse: %v", path, err)
	}
	return prog
}

// TestCorpusDifferential is the tentpole's acceptance test: every
// corpus program typechecks, runs on the abstract machine and on the
// compiled icilk backend, and the two backends agree on main's value —
// with zero dynamic ceiling violations, because the compiled ceilings
// come from the same typing derivation that accepted the program. The
// compiled run happens twice, once per way Run obtains a runtime:
// "nopool" starts a fresh one (the configuration's idle runtime is shut
// down first) and "pooled" reuses the drained runtime that run left on
// the idle list. Reuse must be invisible to program results.
func TestCorpusDifferential(t *testing.T) {
	for _, f := range corpus(t) {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			prog := parseFile(t, f)

			cp, err := Compile(prog, true)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}

			mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
			if err := mc.Run(machine.Prompt{P: 2}, 5_000_000); err != nil {
				t.Fatalf("machine run: %v", err)
			}
			want, ok := mc.FinalValue("main")
			if !ok {
				t.Fatal("machine run left main unfinished")
			}

			cfg := RunConfig{Workers: 2}
			for _, axis := range []struct {
				name  string
				fresh bool
			}{{"nopool", true}, {"pooled", false}} {
				t.Run(axis.name, func(t *testing.T) {
					if axis.fresh {
						dropIdle(cp, cfg)
					} else if idleFor(cp, cfg) == nil {
						t.Fatal("the fresh run left no idle runtime to reuse")
					}
					res, err := cp.Run(cfg)
					if err != nil {
						t.Fatalf("compiled run: %v", err)
					}
					if !ast.ValueEqual(res.Value, want) {
						t.Errorf("backends disagree: machine %s, icilk %s", want, res.Value)
					}
					if res.Stats.CeilingViolations != 0 {
						t.Errorf("checker-accepted program tripped %d ceiling violations",
							res.Stats.CeilingViolations)
					}
					if res.Threads != int64(len(mc.ThreadOrder())) {
						t.Errorf("thread counts disagree: machine %d, icilk %d",
							len(mc.ThreadOrder()), res.Threads)
					}
				})
			}
		})
	}
}

// TestCorpusDifferentialBaseline re-runs the corpus with the compiled
// backend's prioritized scheduler off (the Cilk-F pool): values must
// not change — priorities affect responsiveness, never results.
func TestCorpusDifferentialBaseline(t *testing.T) {
	for _, f := range corpus(t) {
		prog := parseFile(t, f)
		cp, err := Compile(prog, true)
		if err != nil {
			t.Fatalf("%s: compile: %v", f, err)
		}
		mc := machine.New(prog.Order, prog.MainPrio, prog.Main)
		if err := mc.Run(machine.Prompt{P: 2}, 5_000_000); err != nil {
			t.Fatalf("%s: machine run: %v", f, err)
		}
		want, _ := mc.FinalValue("main")
		res, err := cp.Run(RunConfig{Workers: 2, Baseline: true})
		if err != nil {
			t.Fatalf("%s: baseline compiled run: %v", f, err)
		}
		if !ast.ValueEqual(res.Value, want) {
			t.Errorf("%s: baseline backend disagrees: machine %s, icilk %s", f, want, res.Value)
		}
	}
}
