package compile

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/prio"
)

// convert.go is the compile pipeline's middle end: one recursive walk
// over the typechecked AST performing closure conversion and constant
// resolution together (they consume the same scope information, so one
// pass keeps the slot assignment and the priority resolution in sync).
//
// Scope discipline: each code object owns one slot counter. Binders
// (let, bind, ifz's successor, case arms, fix, dcl, lambda parameters)
// allocate monotonically — slots are never reused across disjoint
// scopes, trading a few frame words for never having a capture slot
// clobbered by a later binder. A free variable resolves up the scope
// chain, materializing a capture record (and a fresh slot) in every
// intervening code object, so nested closures thread outer bindings
// inward with one copy per closure-creation, not one substitution per
// occurrence.

// convErr aborts a conversion; it is thrown through panic and caught at
// the pass boundary so the walk doesn't thread errors through every
// case arm.
type convErr struct{ err error }

type converter struct {
	p *Prog
	// pnames is the stack of enclosing Λ binders; a priority variable
	// resolves to its index in the activation's priority environment.
	pnames []string
}

// namespace selects one of the two value namespaces a name resolves
// in: expression variables or dcl-bound locations.
type namespace int

const (
	nsVar namespace = iota
	nsLoc
)

// cscope is the conversion-time view of one code object under
// construction: the live binders, innermost last, and the slot counter.
// The code object's capture list is its capture index.
type cscope struct {
	parent *cscope
	co     *code
	bound  []binder
	next   int
}

type binder struct {
	name string
	ns   namespace
	slot int
}

func newScope(parent *cscope, co *code) *cscope {
	return &cscope{parent: parent, co: co}
}

func (sc *cscope) alloc() int {
	s := sc.next
	sc.next++
	if sc.next > sc.co.nslots {
		sc.co.nslots = sc.next
	}
	return s
}

// bind allocates a slot for a binder of name in namespace ns, live until
// the matching unbind.
func (sc *cscope) bind(ns namespace, name string) int {
	s := sc.alloc()
	sc.bound = append(sc.bound, binder{name: name, ns: ns, slot: s})
	return s
}

func (sc *cscope) unbind() { sc.bound = sc.bound[:len(sc.bound)-1] }

func (c *converter) failf(format string, args ...any) {
	panic(convErr{fmt.Errorf("compile: convert: "+format, args...)})
}

// resolve finds name's slot in sc, capturing through enclosing code
// objects as needed.
func (c *converter) resolve(sc *cscope, ns namespace, name string) int {
	for i := len(sc.bound) - 1; i >= 0; i-- {
		if b := sc.bound[i]; b.name == name && b.ns == ns {
			return b.slot
		}
	}
	if sc.parent == nil {
		if ns == nsLoc {
			c.failf("unbound location %s", name)
		}
		c.failf("unbound variable %s", name)
	}
	isLoc := ns == nsLoc
	for _, cr := range sc.co.caps {
		if cr.name == name && cr.isLoc == isLoc {
			return cr.slot
		}
	}
	from := c.resolve(sc.parent, ns, name)
	s := sc.alloc()
	sc.co.caps = append(sc.co.caps, capRec{from: from, slot: s, name: name, isLoc: isLoc})
	return s
}

// prioRef resolves a priority annotation: constants bake to their
// linearized icilk level; variables bake to their Λ-binder index.
func (c *converter) prioRef(p prio.Prio) prioRef {
	if p.IsVar() {
		for i := len(c.pnames) - 1; i >= 0; i-- {
			if c.pnames[i] == p.Name() {
				return prioRef{idx: i}
			}
		}
		c.failf("unbound priority variable %s", p)
	}
	l, ok := c.p.levelOf[p.Name()]
	if !ok {
		c.failf("undeclared priority %s", p)
	}
	return prioRef{lvl: l, idx: -1}
}

// convert runs the pipeline over the program's main command. It is
// invoked per Run (conversion is linear in program size), which keeps
// hand-assembled Progs and post-Compile ceiling adjustments working —
// the IR always reflects the Prog's current tables.
func (p *Prog) convert() (ir *irProg, err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(convErr)
			if !ok {
				panic(r)
			}
			ir, err = nil, ce.err
		}
	}()
	c := &converter{p: p}
	main := &code{argSlot: -1}
	sc := newScope(nil, main)
	main.cbody = c.cmd(sc, p.Main)
	return &irProg{main: main, levels: p.LevelNames}, nil
}

func (c *converter) cmd(sc *cscope, m ast.Cmd) iCmd {
	switch m := m.(type) {
	case ast.Ret:
		return cRet{e: c.expr(sc, m.E)}

	case ast.Bind:
		e := c.expr(sc, m.E)
		slot := sc.bind(nsVar, m.X)
		body := c.cmd(sc, m.M)
		sc.unbind()
		return cBind{slot: slot, e: e, m: body}

	case ast.Fcreate:
		pr := c.prioRef(m.P)
		co := &code{argSlot: -1, src: ast.CmdVal{P: m.P, M: m.M}}
		inner := newScope(sc, co)
		co.cbody = c.cmd(inner, m.M)
		return cFcreate{p: pr, code: co}

	case ast.Ftouch:
		return cFtouch{e: c.expr(sc, m.E)}

	case ast.Dcl:
		e := c.expr(sc, m.E)
		slot := sc.bind(nsLoc, m.S)
		body := c.cmd(sc, m.M)
		sc.unbind()
		return cDcl{slot: slot, ceil: c.p.ceiling(m.S), loc: m.S, e: e, m: body}

	case ast.Get:
		return cGet{e: c.expr(sc, m.E)}

	case ast.Set:
		return cSet{l: c.expr(sc, m.L), r: c.expr(sc, m.R)}

	case ast.CAS:
		return cCAS{ref: c.expr(sc, m.Ref), old: c.expr(sc, m.Old), nw: c.expr(sc, m.New)}
	}
	c.failf("unknown command form %T", m)
	return nil
}

func (c *converter) expr(sc *cscope, e ast.Expr) iExpr {
	switch e := e.(type) {
	case ast.Unit:
		return iConst{v: vUnit{}}
	case ast.Nat:
		return iConst{v: vNat{n: e.N}}

	case ast.Var:
		return iVar{slot: c.resolve(sc, nsVar, e.Name), name: e.Name}

	case ast.Ref:
		// A dcl-bound location used as a first-class value: the frame
		// slot holds the vRef allocated by the dcl.
		return iVar{slot: c.resolve(sc, nsLoc, e.Loc), name: e.Loc}

	case ast.Tid:
		c.failf("thread literal tid[%s] in source program", e.Thread)

	case ast.Pair:
		return iPair{l: c.expr(sc, e.L), r: c.expr(sc, e.R)}
	case ast.Inl:
		return iInl{v: c.expr(sc, e.V), t: e.T}
	case ast.Inr:
		return iInr{v: c.expr(sc, e.V), t: e.T}

	case ast.Let:
		e1 := c.expr(sc, e.E1)
		slot := sc.bind(nsVar, e.X)
		e2 := c.expr(sc, e.E2)
		sc.unbind()
		return iLet{slot: slot, e1: e1, e2: e2}

	case ast.Ifz:
		v := c.expr(sc, e.V)
		zero := c.expr(sc, e.Zero)
		slot := sc.bind(nsVar, e.X)
		succ := c.expr(sc, e.Succ)
		sc.unbind()
		return iIfz{v: v, zero: zero, slot: slot, succ: succ}

	case ast.App:
		return iApp{f: c.expr(sc, e.F), a: c.expr(sc, e.A)}

	case ast.Fst:
		return iFst{v: c.expr(sc, e.V)}
	case ast.Snd:
		return iSnd{v: c.expr(sc, e.V)}

	case ast.Case:
		v := c.expr(sc, e.V)
		ls := sc.bind(nsVar, e.X)
		l := c.expr(sc, e.L)
		sc.unbind()
		rs := sc.bind(nsVar, e.Y)
		r := c.expr(sc, e.R)
		sc.unbind()
		return iCase{v: v, lslot: ls, l: l, rslot: rs, r: r}

	case ast.Fix:
		slot := sc.bind(nsVar, e.X)
		body := c.expr(sc, e.E)
		sc.unbind()
		return iFix{slot: slot, e: body, name: e.X}

	case ast.Lam:
		co := &code{src: e}
		inner := newScope(sc, co)
		co.argSlot = inner.bind(nsVar, e.X)
		co.body = c.expr(inner, e.Body)
		inner.unbind()
		return iLam{code: co}

	case ast.CmdVal:
		co := &code{argSlot: -1, src: e}
		inner := newScope(sc, co)
		co.cbody = c.cmd(inner, e.M)
		return iCmdVal{code: co}

	case ast.PLam:
		co := &code{argSlot: -1, src: e}
		inner := newScope(sc, co)
		c.pnames = append(c.pnames, e.Pi)
		co.body = c.expr(inner, e.Body)
		c.pnames = c.pnames[:len(c.pnames)-1]
		return iPLam{code: co}

	case ast.PApp:
		return iPApp{v: c.expr(sc, e.V), p: c.prioRef(e.P)}
	}
	c.failf("unknown expression form %T", e)
	return nil
}
