// Package compile is the λ4i → icilk backend: it takes a parsed λ4i
// program, typechecks it (Figures 5–7), and executes it on the real
// event-driven icilk scheduler instead of the abstract-machine simulator
// in internal/machine — one priority semantics from the typing judgment
// to the scheduler.
//
// The mapping:
//
//   - The program's declared priority order R (a partial order) is
//     linearized onto icilk's totally ordered levels by a deterministic
//     topological sort (prio.Order.Linearize): a ⪯ b in R implies
//     level(a) ≤ level(b), so every Touch the static checker accepts is
//     also accepted by the runtime's dynamic inversion check.
//   - fcreate[ρ;τ]{m} compiles to icilk.Spawn at level(ρ); the resulting
//     thread handle tid[a] is a first-class value backed by the task's
//     icilk.Handle — store it, pass it, touch it (the futures-as-
//     handles motif of Figure 1).
//   - ftouch compiles to Handle.Touch, whose dynamic check is the
//     runtime mirror of the Touch rule's ρ ⪯ ρ′ premise.
//   - dcl[τ] s := v in m allocates an icilk.Ref[ast.Expr] whose priority
//     ceiling is derived from the static typing derivation
//     (types.RefUsage): the highest level at which the derivation types
//     a direct access to the cell, or the top level when the reference
//     value escapes direct-access positions. !, := and cas compile to
//     Ref.Load, Ref.Store, and a Ref.Update CAS.
//
// The consequence, asserted by the differential corpus tests: a program
// the checker accepts runs with SchedStats.CeilingViolations == 0 and
// produces the same value as the simulator, while a statically rejected
// inversion program compiled anyway (the -noprio ablation) trips the
// runtime's dynamic PriorityInversionError.
package compile

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/icilk"
	"repro/internal/parser"
	"repro/internal/prio"
	"repro/internal/types"
)

// Prog is a compiled λ4i program: the typechecked main command plus the
// priority linearization and per-dcl ceilings derived from its typing
// derivation. A Prog is immutable and may be Run any number of times.
type Prog struct {
	// Order is the program's declared priority order R.
	Order *prio.Order
	// Main and MainPrio are the program's main command and priority.
	Main     ast.Cmd
	MainPrio prio.Prio
	// MainType is the type the checker derived for main.
	MainType ast.Type

	// LevelNames is the linearization: LevelNames[i] is the priority
	// constant mapped to icilk level i.
	LevelNames []string
	levelOf    map[string]icilk.Priority

	// ceilOf maps each dcl's source-level location name to the derived
	// runtime ceiling for the icilk.Ref it allocates. Same-named sites
	// (shadowing) are merged by maximum, which can only raise a ceiling
	// — a raise never creates a spurious violation.
	ceilOf map[string]icilk.Priority
}

// Compile typechecks prog and builds its icilk backend form. With
// checkPriorities false the structural typing still runs (and still
// collects the ceiling derivation) but the Touch rule's ρ ⪯ ρ′ premise
// and ∀E's entailment are skipped — the configuration that lets a
// priority-inverting program through to the runtime's dynamic check.
func Compile(p *parser.Program, checkPriorities bool) (*Prog, error) {
	names := p.Order.Linearize()
	if len(names) == 0 {
		return nil, fmt.Errorf("compile: program declares no priorities")
	}
	levelOf := make(map[string]icilk.Priority, len(names))
	for i, n := range names {
		levelOf[n] = icilk.Priority(i)
	}

	checker := types.New(p.Order)
	checker.CheckPriorities = checkPriorities
	usage := types.NewRefUsage()
	checker.Usage = usage
	mainType, err := checker.Cmd(types.NewEnv(p.Order), types.Signature{}, p.Main, p.MainPrio)
	if err != nil {
		return nil, fmt.Errorf("compile: typecheck: %w", err)
	}

	top := len(names) - 1
	level := func(pr prio.Prio) (int, bool) {
		if pr.IsVar() {
			return 0, false
		}
		l, ok := levelOf[pr.Name()]
		return int(l), ok
	}
	ceilOf := make(map[string]icilk.Priority, len(usage.Sites))
	for _, site := range usage.Sites {
		c := icilk.Priority(site.MaxAccess(level, top))
		if prev, ok := ceilOf[site.Loc]; !ok || c > prev {
			ceilOf[site.Loc] = c
		}
	}

	return &Prog{
		Order:      p.Order,
		Main:       p.Main,
		MainPrio:   p.MainPrio,
		MainType:   mainType,
		LevelNames: names,
		levelOf:    levelOf,
		ceilOf:     ceilOf,
	}, nil
}

// Levels returns the number of scheduler levels the program needs — one
// per declared priority.
func (p *Prog) Levels() int { return len(p.LevelNames) }

// LevelOf returns the icilk level a priority constant linearizes to.
func (p *Prog) LevelOf(pr prio.Prio) (icilk.Priority, error) {
	if pr.IsVar() {
		return 0, fmt.Errorf("compile: priority variable %s reached the runtime uninstantiated", pr)
	}
	l, ok := p.levelOf[pr.Name()]
	if !ok {
		return 0, fmt.Errorf("compile: undeclared priority %s", pr)
	}
	return l, nil
}

// RefCeilings returns the derived per-dcl ceilings, keyed by the dcl's
// source-level location name (diagnostics, tests, and the CLI's report).
func (p *Prog) RefCeilings() map[string]icilk.Priority {
	out := make(map[string]icilk.Priority, len(p.ceilOf))
	for k, v := range p.ceilOf {
		out[k] = v
	}
	return out
}

// ceiling returns the runtime ceiling for a dcl site by source name; an
// unrecorded site (impossible for a checker-built Prog, but cheap to
// defend) gets the top level, which can never fire spuriously.
func (p *Prog) ceiling(loc string) icilk.Priority {
	if c, ok := p.ceilOf[loc]; ok {
		return c
	}
	return icilk.Priority(len(p.LevelNames) - 1)
}
