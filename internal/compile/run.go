package compile

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/icilk"
)

// RunConfig parameterizes one execution of a compiled program on an
// icilk runtime (see Run for which runtime).
type RunConfig struct {
	// Workers is the virtual core count P (default 4).
	Workers int
	// Timeout bounds the whole run — main's completion plus the drain of
	// any straggling spawned threads (default 30s).
	Timeout time.Duration
	// MaxSteps bounds the evaluator's total steps across all threads,
	// the compiled analogue of the simulator's -max-steps (default 10M;
	// 0 takes the default).
	MaxSteps int64
	// Baseline disables the prioritized scheduler, running every level
	// in one work-stealing pool (the Cilk-F configuration). Results must
	// not change — only responsiveness does.
	Baseline bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 10_000_000
	}
	return c
}

// Result is one compiled execution's outcome.
type Result struct {
	// Value is main's final value, reified back to surface syntax.
	Value ast.Expr
	// Stats is this run's scheduler counters: the runtime's snapshot
	// after the run drained minus its snapshot before main spawned.
	// Stats.CeilingViolations == 0 is the invariant every
	// checker-accepted program must satisfy.
	Stats icilk.SchedStats
	// Threads is the number of λ4i threads the run created (main
	// included).
	Threads int64
	// Elapsed is the wall time from first spawn to drained runtime.
	Elapsed time.Duration
}

// stuckError marks an evaluation state the Progress theorem rules out
// for well-typed programs — reaching one means the term escaped the
// checker (or the backend has a bug).
type stuckError struct{ msg string }

func (e *stuckError) Error() string { return "compile: stuck: " + e.msg }

func stuckf(format string, args ...any) error {
	return &stuckError{msg: fmt.Sprintf(format, args...)}
}

func stuckLimit(max int64) error {
	return fmt.Errorf("compile: exceeded %d evaluation steps", max)
}

// exec is the shared execution state of one run: the converted program,
// the runtime, and the fresh-name/fuel counters. First-class handles
// need no side tables — a vTid carries its future and a vRef its cell.
type exec struct {
	ir *irProg
	rt *icilk.Runtime

	nextThread atomic.Int64
	nextLoc    atomic.Int64
	steps      atomic.Int64
	maxSteps   int64
}

// idleRuntimes holds at most one drained runtime per icilk.Config, so a
// process running many programs pays for New and Shutdown once per
// configuration instead of once per program. A runtime is on the list
// or in one Run, never both.
var (
	idleMu       sync.Mutex
	idleRuntimes = map[icilk.Config]*icilk.Runtime{}
)

// takeRuntime removes the idle runtime for cfg from the list, or starts
// a new one if there is none.
func takeRuntime(cfg icilk.Config) *icilk.Runtime {
	idleMu.Lock()
	rt := idleRuntimes[cfg]
	delete(idleRuntimes, cfg)
	idleMu.Unlock()
	if rt == nil {
		rt = icilk.New(cfg)
	}
	return rt
}

// putRuntime parks a drained runtime on the list, or shuts it down if
// another runtime of the same configuration got there first.
func putRuntime(cfg icilk.Config, rt *icilk.Runtime) {
	idleMu.Lock()
	if idleRuntimes[cfg] == nil {
		idleRuntimes[cfg], rt = rt, nil
	}
	idleMu.Unlock()
	if rt != nil {
		rt.Shutdown()
	}
}

// runtimeConfig is the runtime a run with cfg executes on, and its key
// in idleRuntimes.
func (p *Prog) runtimeConfig(cfg RunConfig) icilk.Config {
	return icilk.Config{
		Workers:    cfg.Workers,
		Levels:     p.Levels(),
		Prioritize: !cfg.Baseline,
	}
}

// Run converts the program through the pass pipeline (closure
// conversion + constant resolution; linear in program size) and
// executes the IR on an icilk runtime taken from the idle list.
//
// The runtime goes back on the list only if main's Await succeeded and
// WaitIdle returned nil: then no task of this program is outstanding,
// and none is parked, holds a lock or sits in a queue. A straggler that
// failed after main returned does not block reuse, because execTask
// released its holds before failing its future. Every other outcome —
// timeout, failed main, MaxSteps, a priority inversion, a panic — shuts
// the runtime down, abandoning whatever is still outstanding.
func (p *Prog) Run(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	ir, err := p.convert()
	if err != nil {
		return nil, err
	}
	mainLvl, err := p.LevelOf(p.MainPrio)
	if err != nil {
		return nil, err
	}
	key := p.runtimeConfig(cfg)
	rt := takeRuntime(key)
	drained := false
	defer func() {
		if drained {
			putRuntime(key, rt)
		} else {
			rt.Shutdown()
		}
	}()

	x := &exec{ir: ir, rt: rt, maxSteps: cfg.MaxSteps}
	before := rt.Stats()
	start := time.Now()
	fut := icilk.Go(rt, nil, mainLvl, "main", func(c *icilk.Ctx) value {
		t := &texec{x: x, c: c}
		return t.run(ir.main, t.stk.push(ir.main.nslots), nil)
	})
	v, err := icilk.Await(fut, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("compile: run: %w", err)
	}
	// Main joined every thread whose value it needed; stragglers (fire-
	// and-forget spawns) still count toward the drain so the stats
	// snapshot below is of a finished program.
	if err := rt.WaitIdle(cfg.Timeout); err != nil {
		return nil, fmt.Errorf("compile: drain: %w", err)
	}
	drained = true
	return &Result{
		Value:   reify(v, ir.levels),
		Stats:   rt.Stats().Sub(before),
		Threads: x.nextThread.Load() + 1,
		Elapsed: time.Since(start),
	}, nil
}

// IRSummary converts the program and renders the pass pipeline's output
// — per-code-object frame sizes and captures, per-dcl baked ceilings —
// for the CLI's -dump-ir flag.
func (p *Prog) IRSummary() (string, error) {
	ir, err := p.convert()
	if err != nil {
		return "", err
	}
	return ir.Summary(), nil
}

// IsPriorityInversion reports whether a Run error was caused by the
// runtime's dynamic priority-inversion check (a Touch below the task's
// priority or a Ref access above its ceiling), unwrapping the task-
// failure chain.
func IsPriorityInversion(err error) bool {
	var pie *icilk.PriorityInversionError
	return errors.As(err, &pie)
}
