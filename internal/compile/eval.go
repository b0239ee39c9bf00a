package compile

import (
	"fmt"
	"strconv"

	"repro/internal/ast"
	"repro/internal/icilk"
)

// eval.go is the environment-based evaluator over the converted IR.
// Values are Go-native representations — no ast rewriting happens on
// the hot path; the only place an ast.Expr is rebuilt is reify, which
// converts main's final value back to surface syntax for Result.Value.
type value = any

type (
	vUnit struct{}
	// vNat boxes without allocating for n < 256 (Go interns small
	// word-sized interface payloads), which covers the numerals hot
	// loops actually produce.
	vNat  struct{ n int }
	vPair struct{ l, r value }
	vInl  struct {
		v value
		t ast.Type
	}
	vInr struct {
		v value
		t ast.Type
	}
	// vRef is an allocated cell: the icilk ref carrying the baked
	// ceiling, plus the run's location number (reify prints s<id>).
	vRef struct {
		cell *icilk.Ref[value]
		id   int64
	}
	// vTid is a first-class thread handle: the run's thread number
	// (reify prints t<id>) and the task's handle. Touching it returns
	// the thread's value as-is (D-Touch), a vTid included.
	vTid struct {
		id int64
		h  icilk.Handle
	}
)

// vClos, vCmd, and vPLam are the closure values: a code object plus the
// captured slots and the priority environment at creation. They are
// pointers so creating one costs a single allocation.
type vClos struct {
	code *code
	caps []value
	penv []icilk.Priority
}

type vCmd struct {
	code *code
	caps []value
	penv []icilk.Priority
}

type vPLam struct {
	code *code
	caps []value
	penv []icilk.Priority
}

// recCell ties fix's recursive knot: the fix-bound slot holds the cell
// while the body evaluates, and the result is patched in before the fix
// expression returns. Reads unwrap; a nil cell read means the fix
// consumed its own value strictly, which the step semantics (and the
// type system's arrow-typed fixes) rule out.
type recCell struct{ v value }

// stepFlush is how many locally counted steps a task accumulates before
// folding them into the shared fuel counter — the shared atomic is off
// the per-node hot path.
const stepFlush = 256

// texec is one task's evaluator state: the shared run, the task's
// scheduler context (refs and touches check against its effective
// priority), the local step count, and the task's frame stack.
type texec struct {
	x   *exec
	c   *icilk.Ctx
	n   int32
	stk frameStack
}

func (t *texec) step() {
	t.n++
	if t.n >= stepFlush {
		t.flush()
	}
}

func (t *texec) flush() {
	if t.n == 0 {
		return
	}
	n := int64(t.n)
	t.n = 0
	if t.x.steps.Add(n) > t.x.maxSteps {
		panic(stuckLimit(t.x.maxSteps))
	}
}

// load reads a frame slot, unwrapping the fix indirection.
func load(fr []value, slot int, name string) value {
	v := fr[slot]
	if rc, ok := v.(*recCell); ok {
		if rc.v == nil {
			panic(stuckf("fix variable %s used before its definition closed", name))
		}
		return rc.v
	}
	return v
}

// stuck panics with a stuck-state report, format applied to the value in
// hand as vstr prints it. It is out of line, so the cold reports keep
// their locals out of eval's and command's Go frames.
//
//go:noinline
func stuck(format string, v value) {
	panic(stuckf(format, vstr(v)))
}

// run executes a task's top-level command over its frame fr, the only
// frame on t's stack, then retires the frame and the steps.
func (t *texec) run(co *code, fr []value, penv []icilk.Priority) value {
	v := t.command(co, fr, penv)
	t.stk.pop(fr)
	t.flush()
	return v
}

// command runs a code object's command body to its final value on the
// calling icilk task. Sequencing (Bind, Dcl) iterates in one frame —
// the environment-based replacement for the substitution evaluator's
// rewrite-and-loop — so long chains neither grow the stack nor copy
// terms.
func (t *texec) command(co *code, fr []value, penv []icilk.Priority) value {
	m := co.cbody
	for {
		t.step()
		switch mm := m.(type) {
		case cRet: // D-Ret
			return t.eval(mm.e, fr, penv)

		case cBind: // D-Bind: run the encapsulated command, write the slot.
			bco, nf, bpenv := t.bound(mm.e, fr, penv)
			fr[mm.slot] = t.command(bco, nf, bpenv)
			t.stk.pop(nf)
			m = mm.m

		case cFcreate: // D-Create → icilk.Spawn at the baked level
			return t.fcreate(mm, fr, penv)

		case cFtouch: // D-Touch → Handle.Touch (dynamic ρ ⪯ ρ′ check)
			tv := t.eval(mm.e, fr, penv)
			tid, ok := tv.(vTid)
			if !ok {
				stuck("ftouch of non-thread value %s", tv)
			}
			return tid.h.Touch(t.c)

		case cDcl: // D-Dcl → icilk.Ref with the baked ceiling
			v := t.eval(mm.e, fr, penv)
			fr[mm.slot] = vRef{cell: icilk.NewRef[value](t.x.rt, mm.ceil, v), id: t.x.nextLoc.Add(1)}
			m = mm.m

		case cGet: // D-Get → Ref.Load
			rv := t.eval(mm.e, fr, penv)
			r, ok := rv.(vRef)
			if !ok {
				stuck("dereference of non-reference value %s", rv)
			}
			return r.cell.Load(t.c)

		case cSet: // D-Set → Ref.Store
			rv := t.eval(mm.l, fr, penv)
			r, ok := rv.(vRef)
			if !ok {
				stuck("assignment to non-reference value %s", rv)
			}
			v := t.eval(mm.r, fr, penv)
			r.cell.Store(t.c, v)
			return v

		case cCAS: // D-CAS1/D-CAS2 → one Ref.Update CAS
			rv := t.eval(mm.ref, fr, penv)
			r, ok := rv.(vRef)
			if !ok {
				stuck("cas on non-reference value %s", rv)
			}
			return t.cas(r, t.eval(mm.old, fr, penv), t.eval(mm.nw, fr, penv))

		default:
			panic(stuckf("unknown command form %T", m))
		}
	}
}

// bound activates the command a Bind runs. A command literal runs in
// place: its frame is filled straight from fr, with no vCmd or capture
// vector in between, and it is charged the one step eval would have
// counted for building it. Any other expression must evaluate to a vCmd.
func (t *texec) bound(e iExpr, fr []value, penv []icilk.Priority) (*code, []value, []icilk.Priority) {
	if lit, ok := e.(iCmdVal); ok {
		t.step()
		return lit.code, t.stk.enterFrom(lit.code, fr), penv
	}
	bv := t.eval(e, fr, penv)
	cv, ok := bv.(*vCmd)
	if !ok {
		stuck("bind of non-command value %s", bv)
	}
	return cv.code, t.stk.enter(cv.code, cv.caps), cv.penv
}

// fcreate spawns mm's body as a new λ4i thread. The body's frame is
// pushed on the new task's own stack here, captures copied from fr, so
// the spawn needs no capture vector.
func (t *texec) fcreate(mm cFcreate, fr []value, penv []icilk.Priority) value {
	x, co := t.x, mm.code
	id := x.nextThread.Add(1)
	t2 := &texec{x: x}
	nf := t2.stk.enterFrom(co, fr)
	h := icilk.Spawn(x.rt, t.c, mm.p.resolve(penv), "l4i", func(c *icilk.Ctx) value {
		t2.c = c
		return t2.run(co, nf, penv)
	})
	return vTid{id: id, h: h}
}

// cas is D-CAS1/D-CAS2 as one Ref.Update: 1 if the cell held old and now
// holds nw, 0 if it held something else and is unchanged.
func (t *texec) cas(r vRef, old, nw value) value {
	var succ bool
	r.cell.Update(t.c, func(cur value) value {
		if valueEq(cur, old) {
			succ = true
			return nw
		}
		succ = false
		return cur
	})
	if succ {
		return vNat{n: 1}
	}
	return vNat{n: 0}
}

// eval evaluates a converted expression in its frame, big-step, with
// the Figure 11 semantics: application activates the closure's code
// object over a frame pushed on the task's stack, fix unrolls through
// the recCell, commands under cmd[ρ]{...} are values that only run when
// bound.
func (t *texec) eval(e iExpr, fr []value, penv []icilk.Priority) value {
	t.step()
	switch ee := e.(type) {
	case iConst:
		return ee.v

	case iVar:
		return load(fr, ee.slot, ee.name)

	case iPair:
		return vPair{l: t.eval(ee.l, fr, penv), r: t.eval(ee.r, fr, penv)}
	case iInl:
		return vInl{v: t.eval(ee.v, fr, penv), t: ee.t}
	case iInr:
		return vInr{v: t.eval(ee.v, fr, penv), t: ee.t}

	case iLet:
		fr[ee.slot] = t.eval(ee.e1, fr, penv)
		return t.eval(ee.e2, fr, penv)

	case iIfz:
		v := t.eval(ee.v, fr, penv)
		n, ok := v.(vNat)
		if !ok {
			stuck("ifz of non-numeral %s", v)
		}
		if n.n == 0 {
			return t.eval(ee.zero, fr, penv)
		}
		fr[ee.slot] = vNat{n: n.n - 1}
		return t.eval(ee.succ, fr, penv)

	case iApp:
		f := t.eval(ee.f, fr, penv)
		cl, ok := f.(*vClos)
		if !ok {
			stuck("application of non-lambda %s", f)
		}
		return t.apply(cl, t.eval(ee.a, fr, penv))

	case iFst:
		v := t.eval(ee.v, fr, penv)
		p, ok := v.(vPair)
		if !ok {
			stuck("fst of non-pair %s", v)
		}
		return p.l
	case iSnd:
		v := t.eval(ee.v, fr, penv)
		p, ok := v.(vPair)
		if !ok {
			stuck("snd of non-pair %s", v)
		}
		return p.r

	case iCase:
		switch v := t.eval(ee.v, fr, penv).(type) {
		case vInl:
			fr[ee.lslot] = v.v
			return t.eval(ee.l, fr, penv)
		case vInr:
			fr[ee.rslot] = v.v
			return t.eval(ee.r, fr, penv)
		default:
			stuck("case of non-sum %s", v)
		}

	case iFix:
		rc := &recCell{}
		fr[ee.slot] = rc
		v := t.eval(ee.e, fr, penv)
		rc.v = v
		return v

	case iLam:
		return &vClos{code: ee.code, caps: mkCaps(ee.code, fr), penv: penv}
	case iCmdVal:
		return &vCmd{code: ee.code, caps: mkCaps(ee.code, fr), penv: penv}
	case iPLam:
		return &vPLam{code: ee.code, caps: mkCaps(ee.code, fr), penv: penv}

	case iPApp:
		pv := t.eval(ee.v, fr, penv)
		pl, ok := pv.(*vPLam)
		if !ok {
			stuck("priority application of non-abstraction %s", pv)
		}
		return t.papp(pl, ee.p.resolve(penv))
	}
	panic(stuckf("unknown expression form %T", e))
}

// apply is →E: it activates cl's code over a frame holding the argument
// a and evaluates the body.
func (t *texec) apply(cl *vClos, a value) value {
	nf := t.stk.enter(cl.code, cl.caps)
	nf[cl.code.argSlot] = a
	v := t.eval(cl.code.body, nf, cl.penv)
	t.stk.pop(nf)
	return v
}

// papp is ∀E: it extends pl's priority environment with the (already
// resolved) instantiation p and evaluates the body.
func (t *texec) papp(pl *vPLam, p icilk.Priority) value {
	np := make([]icilk.Priority, len(pl.penv), len(pl.penv)+1)
	copy(np, pl.penv)
	np = append(np, p)
	nf := t.stk.enter(pl.code, pl.caps)
	v := t.eval(pl.code.body, nf, np)
	t.stk.pop(nf)
	return v
}

// valueEq compares two values structurally — the CAS rule's D-CAS1/
// D-CAS2 comparison. Closure-ish values compare by reified printed
// form, matching ast.ValueEqual's treatment of lambdas and commands.
func valueEq(a, b value) bool {
	switch a := a.(type) {
	case vUnit:
		_, ok := b.(vUnit)
		return ok
	case vNat:
		bb, ok := b.(vNat)
		return ok && a.n == bb.n
	case vPair:
		bb, ok := b.(vPair)
		return ok && valueEq(a.l, bb.l) && valueEq(a.r, bb.r)
	case vInl:
		bb, ok := b.(vInl)
		return ok && valueEq(a.v, bb.v)
	case vInr:
		bb, ok := b.(vInr)
		return ok && valueEq(a.v, bb.v)
	case vRef:
		bb, ok := b.(vRef)
		return ok && a.cell == bb.cell
	case vTid:
		bb, ok := b.(vTid)
		return ok && a.id == bb.id
	default:
		return vstr(a) == vstr(b)
	}
}

// reify converts a runtime value back to surface syntax. Data is
// structural; closures substitute their reified captures back into the
// original source term, so the printed form matches what the
// substitution semantics would have produced.
func reify(v value, levels []string) ast.Expr {
	switch v := v.(type) {
	case vUnit:
		return ast.Unit{}
	case vNat:
		return ast.Nat{N: v.n}
	case vPair:
		return ast.Pair{L: reify(v.l, levels), R: reify(v.r, levels)}
	case vInl:
		return ast.Inl{V: reify(v.v, levels), T: v.t}
	case vInr:
		return ast.Inr{V: reify(v.v, levels), T: v.t}
	case vRef:
		return ast.Ref{Loc: "s" + strconv.FormatInt(v.id, 10)}
	case vTid:
		return ast.Tid{Thread: "t" + strconv.FormatInt(v.id, 10)}
	case *recCell:
		if v.v != nil {
			return reify(v.v, levels)
		}
		return ast.Var{Name: "fix"}
	case *vClos:
		return reifyCode(v.code, v.caps, levels)
	case *vCmd:
		return reifyCode(v.code, v.caps, levels)
	case *vPLam:
		return reifyCode(v.code, v.caps, levels)
	}
	panic(stuckf("unknown value form %T", v))
}

func reifyCode(co *code, caps []value, levels []string) ast.Expr {
	e := co.src
	if e == nil {
		return ast.Var{Name: "<code>"}
	}
	for i, cr := range co.caps {
		cv := reify(caps[i], levels)
		if cr.isLoc {
			if r, ok := cv.(ast.Ref); ok {
				e = ast.SubstLoc(r.Loc, cr.name, e)
			}
			continue
		}
		e = ast.Subst(cv, cr.name, e)
	}
	return e
}

// vstr prints a value for diagnostics via its reified surface form.
func vstr(v value) (s string) {
	defer func() {
		if recover() != nil {
			s = fmt.Sprintf("<%T>", v)
		}
	}()
	return reify(v, nil).String()
}
