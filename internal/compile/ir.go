package compile

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/icilk"
)

// This file defines the closure-converted IR the env-based evaluator
// executes. The pipeline (convert.go) replaces the old substitution
// evaluator's per-step AST rewriting with three compile-time passes:
//
//  1. Closure conversion: every variable occurrence — expression
//     variables, dcl-bound locations, and fix-bound names alike —
//     resolves to a fixed slot in a flat per-activation frame. Lambdas,
//     encapsulated commands, priority abstractions, and fcreate bodies
//     lift to closed code objects that record exactly which enclosing
//     slots they capture; a closure value is the code pointer plus a
//     copied capture vector, so application never rewrites a term.
//  2. Environment discipline: an activation is one []value frame sized
//     at conversion time (code.nslots), pushed on its task's frame
//     stack. Binders write their slot once; frames never grow, and the
//     long Bind/Let chains that cost the substitution evaluator O(term²)
//     become one frame.
//  3. Constant resolution: every priority annotation is resolved to a
//     linearized icilk level (or a priority-environment index under a Λ
//     binder) and every dcl carries its derived ceiling, so the hot
//     path never consults prio.Order, the level map, or types.RefUsage.
//
// The dynamic ρ ⪯ ρ′ touch check and the ref-ceiling check stay in the
// runtime (Future.Touch, Ref.check) — they are the paper's dynamic
// mirror of the typing rules and must observe effective (boosted)
// priorities, which only exist at run time.

// prioRef is a priority annotation after constant resolution: either a
// baked icilk level (idx < 0) or an index into the activation's
// priority environment for occurrences under a Λ binder, resolved when
// ∀E supplies the instantiation.
type prioRef struct {
	lvl icilk.Priority
	idx int
}

func (p prioRef) resolve(penv []icilk.Priority) icilk.Priority {
	if p.idx >= 0 {
		return penv[p.idx]
	}
	return p.lvl
}

// capRec records one captured binding of a code object: the slot to
// read in the frame that creates the closure, and the slot the value
// lands in when the code object is activated. Captures copy by value,
// which is sound because λ4i variables are immutable (mutable state
// lives behind first-class refs, and a capture copies the vRef handle,
// not the cell).
type capRec struct {
	from  int    // slot in the creating frame
	slot  int    // slot in this code object's frame
	name  string // source name, for reification
	isLoc bool   // dcl-bound location (reify substitutes ref[s], not x)
}

// code is one closed code object produced by closure conversion:
// exactly one of body (lambda / priority-abstraction body) or cbody
// (encapsulated command / fcreate body / main) is set.
type code struct {
	src     ast.Expr // originating source value, for reification
	caps    []capRec
	nslots  int
	argSlot int // lambda parameter slot; -1 otherwise
	body    iExpr
	cbody   iCmd
}

// mkCaps snapshots the capture vector for a closure created in frame fr.
func mkCaps(co *code, fr []value) []value {
	if len(co.caps) == 0 {
		return nil
	}
	caps := make([]value, len(co.caps))
	for i := range co.caps {
		caps[i] = fr[co.caps[i].from]
	}
	return caps
}

// segSlots is the size of a pooled frame-stack segment; inlineSlots is
// the stack a task carries inside its texec, enough for the fcreate
// bodies that return a capture, touch, or access one cell.
const (
	segSlots    = 4096
	inlineSlots = 8
)

// stackSeg is one pooled frame-stack segment, with the segment and top
// it was pushed over so popping its last frame resumes there. A segment
// in the pool has every slot nil.
type stackSeg struct {
	slots    []value
	below    []value
	belowTop int
	belowSeg *stackSeg
}

var segPool = sync.Pool{New: func() any { return &stackSeg{slots: make([]value, segSlots)} }}

// frameStack is one task's activation frames: an inline buffer for tiny
// tasks, then pooled segments. A segment that fills up is left as is and
// a new one started over it — live frames keep their own slices, so
// nothing is copied.
type frameStack struct {
	cur    []value   // the segment frames are pushed on
	top    int       // first free slot of cur
	seg    *stackSeg // the pooled segment cur is; nil on the inline buffer
	inline [inlineSlots]value
}

// push returns a zeroed n-slot frame on top of the stack.
//
// Frames are strictly LIFO per task because no value ever points at a
// frame: closures copy their captures (mkCaps), fix ties its knot
// through a heap recCell, and fcreate copies captures onto the new
// task's own stack. So an activation's frame is dead once it returns,
// and its slots can be cleared and reused by the next push.
func (s *frameStack) push(n int) []value {
	top := s.top + n
	if top > len(s.cur) {
		s.grow(n)
		top = n
	}
	fr := s.cur[s.top:top:top]
	s.top = top
	return fr
}

// grow makes room for an n-slot frame at the bottom of a fresh segment:
// the inline buffer on a task's first push, a pooled segment on every
// overflow after that.
func (s *frameStack) grow(n int) {
	if s.cur == nil && n <= inlineSlots {
		s.cur = s.inline[:]
		return
	}
	var ns *stackSeg
	if n <= segSlots {
		ns = segPool.Get().(*stackSeg)
	} else {
		ns = &stackSeg{slots: make([]value, n)}
	}
	ns.below, ns.belowTop, ns.belowSeg = s.cur, s.top, s.seg
	s.cur, s.top, s.seg = ns.slots, 0, ns
}

// pop clears and releases the top frame fr. When fr was its segment's
// first frame, the stack steps back down to the segment below and the
// emptied segment goes back to the pool, so a task that returns holds
// no segment.
func (s *frameStack) pop(fr []value) {
	clear(fr)
	s.top -= len(fr)
	if s.top == 0 && s.seg != nil {
		ns := s.seg
		s.cur, s.top, s.seg = ns.below, ns.belowTop, ns.belowSeg
		ns.below, ns.belowSeg = nil, nil
		if len(ns.slots) == segSlots {
			segPool.Put(ns)
		}
	}
}

// enter pushes co's frame and installs a closure's captures caps.
func (s *frameStack) enter(co *code, caps []value) []value {
	fr := s.push(co.nslots)
	for i := range co.caps {
		fr[co.caps[i].slot] = caps[i]
	}
	return fr
}

// enterFrom pushes co's frame for a code object activated where it is
// created, reading its captures straight from the creating frame.
func (s *frameStack) enterFrom(co *code, from []value) []value {
	fr := s.push(co.nslots)
	for i := range co.caps {
		fr[co.caps[i].slot] = from[co.caps[i].from]
	}
	return fr
}

// iExpr is a closure-converted λ4i expression.
type iExpr interface{ isIExpr() }

type (
	// iConst is a literal resolved at conversion time (unit, numerals).
	iConst struct{ v value }
	// iVar reads a frame slot; name is kept for stuck-state reports.
	iVar struct {
		slot int
		name string
	}
	iPair struct{ l, r iExpr }
	iInl  struct {
		v iExpr
		t ast.Type
	}
	iInr struct {
		v iExpr
		t ast.Type
	}
	iLet struct {
		slot   int
		e1, e2 iExpr
	}
	iIfz struct {
		v, zero iExpr
		slot    int
		succ    iExpr
	}
	iApp  struct{ f, a iExpr }
	iFst  struct{ v iExpr }
	iSnd  struct{ v iExpr }
	iCase struct {
		v     iExpr
		lslot int
		l     iExpr
		rslot int
		r     iExpr
	}
	// iFix ties the recursive knot through a recCell: the slot holds the
	// cell while the body evaluates, and the cell is patched with the
	// result — recursion unrolls through one pointer read per call
	// instead of one substitution per unrolling.
	iFix struct {
		slot int
		e    iExpr
		name string
	}
	iLam    struct{ code *code }
	iCmdVal struct{ code *code }
	iPLam   struct{ code *code }
	iPApp   struct {
		v iExpr
		p prioRef
	}
)

func (iConst) isIExpr()  {}
func (iVar) isIExpr()    {}
func (iPair) isIExpr()   {}
func (iInl) isIExpr()    {}
func (iInr) isIExpr()    {}
func (iLet) isIExpr()    {}
func (iIfz) isIExpr()    {}
func (iApp) isIExpr()    {}
func (iFst) isIExpr()    {}
func (iSnd) isIExpr()    {}
func (iCase) isIExpr()   {}
func (iFix) isIExpr()    {}
func (iLam) isIExpr()    {}
func (iCmdVal) isIExpr() {}
func (iPLam) isIExpr()   {}
func (iPApp) isIExpr()   {}

// iCmd is a closure-converted λ4i command.
type iCmd interface{ isICmd() }

type (
	cRet  struct{ e iExpr }
	cBind struct {
		slot int
		e    iExpr
		m    iCmd
	}
	cFcreate struct {
		p    prioRef
		code *code
	}
	cFtouch struct{ e iExpr }
	cDcl    struct {
		slot int
		ceil icilk.Priority
		loc  string
		e    iExpr
		m    iCmd
	}
	cGet struct{ e iExpr }
	cSet struct{ l, r iExpr }
	cCAS struct{ ref, old, nw iExpr }
)

func (cRet) isICmd()     {}
func (cBind) isICmd()    {}
func (cFcreate) isICmd() {}
func (cFtouch) isICmd()  {}
func (cDcl) isICmd()     {}
func (cGet) isICmd()     {}
func (cSet) isICmd()     {}
func (cCAS) isICmd()     {}

// irProg is a fully converted program: main's code object (no captures)
// plus the linearization names reification needs to print priorities.
type irProg struct {
	main   *code
	levels []string
}

// Summary renders the pass pipeline's output for the CLI's -dump-ir:
// one line per code object with its frame size, captures, and the
// constants (levels, ceilings) baked into its body.
func (ir *irProg) Summary() string {
	var b strings.Builder
	var walk func(co *code, name string)
	walk = func(co *code, name string) {
		fmt.Fprintf(&b, "%-14s slots=%-3d caps=%d", name, co.nslots, len(co.caps))
		if len(co.caps) > 0 {
			names := make([]string, len(co.caps))
			for i, cr := range co.caps {
				names[i] = cr.name
				if cr.isLoc {
					names[i] = "ref " + cr.name
				}
			}
			fmt.Fprintf(&b, " [%s]", strings.Join(names, ", "))
		}
		b.WriteByte('\n')
		for _, c := range irChildren(co) {
			walk(c.code, fmt.Sprintf("  %s", c.kind))
		}
	}
	walk(ir.main, "main")
	for _, d := range irDcls(ir.main) {
		fmt.Fprintf(&b, "dcl %-10s ceiling=%d", d.loc, d.ceil)
		if int(d.ceil) < len(ir.levels) {
			fmt.Fprintf(&b, " (%s)", ir.levels[d.ceil])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

type irChild struct {
	kind string
	code *code
}

// irChildren lists the code objects created directly by co's body.
func irChildren(co *code) []irChild {
	var out []irChild
	var ex func(e iExpr)
	var cm func(m iCmd)
	ex = func(e iExpr) {
		switch e := e.(type) {
		case iPair:
			ex(e.l)
			ex(e.r)
		case iInl:
			ex(e.v)
		case iInr:
			ex(e.v)
		case iLet:
			ex(e.e1)
			ex(e.e2)
		case iIfz:
			ex(e.v)
			ex(e.zero)
			ex(e.succ)
		case iApp:
			ex(e.f)
			ex(e.a)
		case iFst:
			ex(e.v)
		case iSnd:
			ex(e.v)
		case iCase:
			ex(e.v)
			ex(e.l)
			ex(e.r)
		case iFix:
			ex(e.e)
		case iLam:
			out = append(out, irChild{"fn", e.code})
		case iCmdVal:
			out = append(out, irChild{"cmd", e.code})
		case iPLam:
			out = append(out, irChild{"pfn", e.code})
		case iPApp:
			ex(e.v)
		}
	}
	cm = func(m iCmd) {
		switch m := m.(type) {
		case cRet:
			ex(m.e)
		case cBind:
			ex(m.e)
			cm(m.m)
		case cFcreate:
			out = append(out, irChild{"fcreate", m.code})
		case cFtouch:
			ex(m.e)
		case cDcl:
			ex(m.e)
			cm(m.m)
		case cGet:
			ex(m.e)
		case cSet:
			ex(m.l)
			ex(m.r)
		case cCAS:
			ex(m.ref)
			ex(m.old)
			ex(m.nw)
		}
	}
	if co.cbody != nil {
		cm(co.cbody)
	} else {
		ex(co.body)
	}
	return out
}

// irDcls lists every dcl (with its baked ceiling) reachable from co.
func irDcls(co *code) []cDcl {
	var out []cDcl
	var visit func(co *code)
	var cm func(m iCmd)
	var ex func(e iExpr)
	ex = func(e iExpr) {
		switch e := e.(type) {
		case iPair:
			ex(e.l)
			ex(e.r)
		case iInl:
			ex(e.v)
		case iInr:
			ex(e.v)
		case iLet:
			ex(e.e1)
			ex(e.e2)
		case iIfz:
			ex(e.v)
			ex(e.zero)
			ex(e.succ)
		case iApp:
			ex(e.f)
			ex(e.a)
		case iFst:
			ex(e.v)
		case iSnd:
			ex(e.v)
		case iCase:
			ex(e.v)
			ex(e.l)
			ex(e.r)
		case iFix:
			ex(e.e)
		case iLam:
			visit(e.code)
		case iCmdVal:
			visit(e.code)
		case iPLam:
			visit(e.code)
		case iPApp:
			ex(e.v)
		}
	}
	cm = func(m iCmd) {
		switch m := m.(type) {
		case cRet:
			ex(m.e)
		case cBind:
			ex(m.e)
			cm(m.m)
		case cFcreate:
			visit(m.code)
		case cFtouch:
			ex(m.e)
		case cDcl:
			out = append(out, m)
			ex(m.e)
			cm(m.m)
		case cGet:
			ex(m.e)
		case cSet:
			ex(m.l)
			ex(m.r)
		case cCAS:
			ex(m.ref)
			ex(m.old)
			ex(m.nw)
		}
	}
	visit = func(co *code) {
		if co.cbody != nil {
			cm(co.cbody)
		} else {
			ex(co.body)
		}
	}
	visit(co)
	return out
}
