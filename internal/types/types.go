// Package types implements the λ4i type system of Muller et al. (PLDI
// 2020), Figures 5 (expression typing), 6 (command typing) and 7
// (constraint entailment). The judgment forms are
//
//	Γ ⊢RΣ e : τ        (expressions)
//	Γ ⊢RΣ m ∼: τ @ ρ   (commands, at priority ρ)
//
// The Checker also supports a "no-priority" mode that skips the
// priority-inversion checks (Touch's ρ ⪯ ρ′ premise and ∀-elimination's
// constraint entailment); the Table 1 experiment compares checking cost
// with and without them.
package types

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/prio"
)

// SigEntry is one entry of a signature Σ: either a memory location s∼τ or
// a thread a∼τ@ρ.
type SigEntry struct {
	Loc bool
	T   ast.Type
	P   prio.Prio // thread priority; unused for locations
}

// Signature is Σ: types for memory locations and running threads.
type Signature map[string]SigEntry

// Clone returns a copy of the signature.
func (s Signature) Clone() Signature {
	out := make(Signature, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Merge returns the signature extended with all entries of other
// (entries of other win on collision, matching Σ,Σ′ concatenation).
func (s Signature) Merge(other Signature) Signature {
	out := s.Clone()
	for k, v := range other {
		out[k] = v
	}
	return out
}

// Env is the typing context Γ: expression variables plus the priority
// fragment (priority variables and assumed constraints). Env values are
// persistent: an Env is one binding on top of the context it extends,
// newest first, so extension is one allocation and shares everything
// below. Alongside the types, Env threads the usage recorder's ref-alias
// facts: a let-bound variable known to denote a specific dcl site, so
// accesses through the alias attribute to that site instead of widening
// its ceiling to top. A rebinding shadows an outer alias like any other
// binding.
type Env struct {
	x    string
	t    ast.Type
	site int  // RefUsage site index x denotes, or -1
	up   *Env // the context x extends; nil for the empty context
	pctx *prio.Ctx
}

// NewEnv returns an empty context over the given priority order.
func NewEnv(order *prio.Order) *Env {
	return &Env{site: -1, pctx: prio.NewCtx(order)}
}

// WithVar returns Γ, x:τ. Rebinding x kills any ref-alias fact recorded
// for an outer x — the new binding denotes an unknown value.
func (g *Env) WithVar(x string, t ast.Type) *Env {
	return g.withAlias(x, t, -1)
}

// withAlias returns Γ, x:τ with x known to denote the dcl site with the
// given usage index (-1: no site).
func (g *Env) withAlias(x string, t ast.Type, site int) *Env {
	return &Env{x: x, t: t, site: site, up: g, pctx: g.pctx}
}

// lookup returns the innermost binding of x, or nil.
func (g *Env) lookup(x string) *Env {
	for e := g; e.up != nil; e = e.up {
		if e.x == x {
			return e
		}
	}
	return nil
}

// refAlias returns the dcl site index x is known to denote, if any.
func (g *Env) refAlias(x string) (int, bool) {
	if b := g.lookup(x); b != nil && b.site >= 0 {
		return b.site, true
	}
	return 0, false
}

// WithPrioVar returns Γ, π prio, C: the same bindings under an extended
// priority fragment.
func (g *Env) WithPrioVar(pi string, c prio.Constraints) *Env {
	ext := *g
	ext.pctx = g.pctx.WithVar(pi).WithConstraints(c...)
	return &ext
}

// Lookup returns the type of x in Γ.
func (g *Env) Lookup(x string) (ast.Type, bool) {
	if b := g.lookup(x); b != nil {
		return b.t, true
	}
	return nil, false
}

// PrioCtx exposes the priority fragment of Γ.
func (g *Env) PrioCtx() *prio.Ctx { return g.pctx }

// Error is a type error with the offending term.
type Error struct {
	Term string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("type error in %s: %s", e.Term, e.Msg) }

func errf(term fmt.Stringer, format string, args ...any) error {
	return &Error{Term: term.String(), Msg: fmt.Sprintf(format, args...)}
}

// RefSite is the state-usage summary of one dcl site extracted from a
// typing derivation: the priorities at which the derivation types direct
// accesses (!, :=, cas) to the declared location, plus enough counting
// to tell whether the reference value ever escapes those direct-access
// positions (flows into a function, a pair, another cell, ...). The
// icilk backend turns this into the cell's runtime priority ceiling:
// the maximum access level for non-escaping sites, the top level when
// the ref escapes (a too-high ceiling can never fire spuriously; a
// too-low one would reject derivation-approved accesses).
type RefSite struct {
	// Loc is the dcl's source-level location name.
	Loc string
	// Accesses are the command priorities of the direct Get/Set/CAS
	// accesses the derivation typed against this site.
	Accesses []prio.Prio
	// ExprUses counts every appearance of the location as a ref[s]
	// expression; DirectUses counts the subset that were the immediate
	// target of a Get/Set/CAS. A surplus of ExprUses means the value
	// escaped.
	ExprUses   int
	DirectUses int
}

// Escapes reports whether the reference value was used anywhere other
// than as the direct target of a dereference, assignment, or cas.
func (s RefSite) Escapes() bool { return s.ExprUses != s.DirectUses }

// MaxAccess folds the site's access priorities with level, an
// order-embedding map from priority to a total order (larger = more
// urgent). It returns the highest access level, or top when the site
// escapes or is accessed at a priority level cannot resolve (a priority
// variable under a Λ binder).
func (s RefSite) MaxAccess(level func(prio.Prio) (int, bool), top int) int {
	if s.Escapes() {
		return top
	}
	max := 0
	for _, p := range s.Accesses {
		l, ok := level(p)
		if !ok {
			return top
		}
		if l > max {
			max = l
		}
	}
	return max
}

// RefUsage accumulates RefSites while a Checker walks a derivation, one
// site per dcl in typing order, with lexical shadowing resolved by a
// per-name scope stack.
type RefUsage struct {
	scope map[string][]int
	Sites []RefSite
}

// NewRefUsage returns an empty recorder; assign it to Checker.Usage
// before checking to collect state usage from the derivation.
func NewRefUsage() *RefUsage {
	return &RefUsage{scope: map[string][]int{}}
}

func (u *RefUsage) push(loc string) {
	u.scope[loc] = append(u.scope[loc], len(u.Sites))
	u.Sites = append(u.Sites, RefSite{Loc: loc})
}

func (u *RefUsage) pop(loc string) {
	st := u.scope[loc]
	u.scope[loc] = st[:len(st)-1]
}

func (u *RefUsage) cur(loc string) int {
	st := u.scope[loc]
	if len(st) == 0 {
		return -1 // a signature location not bound by any dcl in scope
	}
	return st[len(st)-1]
}

func (u *RefUsage) exprUse(loc string) {
	if i := u.cur(loc); i >= 0 {
		u.Sites[i].ExprUses++
	}
}

func (u *RefUsage) access(loc string, at prio.Prio) {
	if i := u.cur(loc); i >= 0 {
		u.Sites[i].DirectUses++
		u.Sites[i].Accesses = append(u.Sites[i].Accesses, at)
	}
}

// accessAt records a direct access against a known site index — the
// alias-resolved analogue of access.
func (u *RefUsage) accessAt(site int, at prio.Prio) {
	u.Sites[site].DirectUses++
	u.Sites[site].Accesses = append(u.Sites[site].Accesses, at)
}

// useAt bumps a known site's use counter without a matching direct use;
// an unbalanced useAt is an escape through the alias.
func (u *RefUsage) useAt(site int) {
	u.Sites[site].ExprUses++
}

// creditAt balances one use that the analysis fully accounts for (an
// alias-forming let, whose flow is tracked rather than escaping).
func (u *RefUsage) creditAt(site int) {
	u.Sites[site].DirectUses++
}

// Checker checks λ4i programs against a priority order R.
type Checker struct {
	Order *prio.Order
	// CheckPriorities enables the priority-inversion checks. When false,
	// the checker still verifies all structural typing but skips the
	// Touch rule's ρ ⪯ ρ′ premise and ∀E's constraint entailment — the
	// "without priorities" configuration of Table 1.
	CheckPriorities bool
	// Usage, when non-nil, records per-dcl state usage (access
	// priorities and escapes) from the derivation — the input to the
	// icilk backend's ceiling derivation. Leave nil when the usage is
	// not needed; recording is strictly additive and never changes what
	// typechecks.
	Usage *RefUsage
}

// New returns a Checker with priority checking enabled.
func New(order *prio.Order) *Checker {
	return &Checker{Order: order, CheckPriorities: true}
}

// directTarget records a successful direct access when the command's
// target expression is a literal ref[s] (the shape ANF produces for
// dcl-bound names) or a variable the context knows to alias one; other
// targets were already counted as escapes by the ref expression rule.
func (c *Checker) directTarget(g *Env, e ast.Expr, at prio.Prio) {
	if c.Usage == nil {
		return
	}
	switch e := e.(type) {
	case ast.Ref:
		c.Usage.access(e.Loc, at)
	case ast.Var:
		if i, ok := g.refAlias(e.Name); ok {
			c.Usage.accessAt(i, at)
		}
	}
}

// aliasSite resolves an expression to the dcl site it denotes, if the
// context can see that statically: a literal ref[s], or a variable
// already known to alias one. Returns -1 otherwise.
func (c *Checker) aliasSite(g *Env, e ast.Expr) int {
	if c.Usage == nil {
		return -1
	}
	switch e := e.(type) {
	case ast.Ref:
		return c.Usage.cur(e.Loc)
	case ast.Var:
		if i, ok := g.refAlias(e.Name); ok {
			return i
		}
	}
	return -1
}

// validPrio checks that a priority is well-formed under Γ.
func (c *Checker) validPrio(g *Env, p prio.Prio, at fmt.Stringer) error {
	if !g.pctx.WellFormed(p) {
		return errf(at, "priority %s is not declared", p)
	}
	return nil
}

// validType checks that every priority mentioned in τ is well-formed.
func (c *Checker) validType(g *Env, t ast.Type, at fmt.Stringer) error {
	switch t := t.(type) {
	case ast.UnitT, ast.NatT:
		return nil
	case ast.ArrowT:
		if err := c.validType(g, t.From, at); err != nil {
			return err
		}
		return c.validType(g, t.To, at)
	case ast.ProdT:
		if err := c.validType(g, t.L, at); err != nil {
			return err
		}
		return c.validType(g, t.R, at)
	case ast.SumT:
		if err := c.validType(g, t.L, at); err != nil {
			return err
		}
		return c.validType(g, t.R, at)
	case ast.RefT:
		return c.validType(g, t.T, at)
	case ast.ThreadT:
		if err := c.validPrio(g, t.P, at); err != nil {
			return err
		}
		return c.validType(g, t.T, at)
	case ast.CmdT:
		if err := c.validPrio(g, t.P, at); err != nil {
			return err
		}
		return c.validType(g, t.T, at)
	case ast.ForallT:
		g2 := g.WithPrioVar(t.Pi, nil)
		return c.validType(g2, t.T, at)
	}
	return errf(at, "unknown type %T", t)
}

// Expr checks Γ ⊢RΣ e : τ and returns τ.
func (c *Checker) Expr(g *Env, sig Signature, e ast.Expr) (ast.Type, error) {
	switch e := e.(type) {
	case ast.Var:
		t, ok := g.Lookup(e.Name)
		if !ok {
			return nil, errf(e, "unbound variable %s", e.Name)
		}
		// An occurrence of a ref alias is a use of the underlying cell;
		// Get/Set/CAS balance it with accessAt when it is their direct
		// target, so only genuinely escaping occurrences widen the site.
		if c.Usage != nil {
			if i, aliased := g.refAlias(e.Name); aliased {
				c.Usage.useAt(i)
			}
		}
		return t, nil

	case ast.Unit:
		return ast.UnitT{}, nil

	case ast.Nat:
		return ast.NatT{}, nil

	case ast.Tid: // rule Tid
		ent, ok := sig[e.Thread]
		if !ok || ent.Loc {
			return nil, errf(e, "thread %s not in signature", e.Thread)
		}
		return ast.ThreadT{T: ent.T, P: ent.P}, nil

	case ast.Ref: // rule Ref
		ent, ok := sig[e.Loc]
		if !ok || !ent.Loc {
			return nil, errf(e, "location %s not in signature", e.Loc)
		}
		if c.Usage != nil {
			c.Usage.exprUse(e.Loc)
		}
		return ast.RefT{T: ent.T}, nil

	case ast.Lam: // rule →I
		if e.T == nil {
			return nil, errf(e, "lambda parameter %s needs a type annotation", e.X)
		}
		if err := c.validType(g, e.T, e); err != nil {
			return nil, err
		}
		body, err := c.Expr(g.WithVar(e.X, e.T), sig, e.Body)
		if err != nil {
			return nil, err
		}
		return ast.ArrowT{From: e.T, To: body}, nil

	case ast.App: // rule →E
		ft, err := c.Expr(g, sig, e.F)
		if err != nil {
			return nil, err
		}
		arr, ok := ft.(ast.ArrowT)
		if !ok {
			return nil, errf(e, "application of non-function type %s", ft)
		}
		at, err := c.Expr(g, sig, e.A)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(arr.From, at) {
			return nil, errf(e, "argument type %s does not match parameter type %s", at, arr.From)
		}
		return arr.To, nil

	case ast.Pair: // rule ×I
		lt, err := c.Expr(g, sig, e.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.Expr(g, sig, e.R)
		if err != nil {
			return nil, err
		}
		return ast.ProdT{L: lt, R: rt}, nil

	case ast.Fst: // rule ×E1
		t, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		p, ok := t.(ast.ProdT)
		if !ok {
			return nil, errf(e, "fst of non-product type %s", t)
		}
		return p.L, nil

	case ast.Snd: // rule ×E2
		t, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		p, ok := t.(ast.ProdT)
		if !ok {
			return nil, errf(e, "snd of non-product type %s", t)
		}
		return p.R, nil

	case ast.Inl: // rule +I1
		if e.T == nil {
			return nil, errf(e, "inl needs a sum type annotation")
		}
		st, ok := e.T.(ast.SumT)
		if !ok {
			return nil, errf(e, "inl annotation %s is not a sum type", e.T)
		}
		if err := c.validType(g, st, e); err != nil {
			return nil, err
		}
		vt, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(vt, st.L) {
			return nil, errf(e, "inl payload type %s does not match %s", vt, st.L)
		}
		return st, nil

	case ast.Inr: // rule +I2
		if e.T == nil {
			return nil, errf(e, "inr needs a sum type annotation")
		}
		st, ok := e.T.(ast.SumT)
		if !ok {
			return nil, errf(e, "inr annotation %s is not a sum type", e.T)
		}
		if err := c.validType(g, st, e); err != nil {
			return nil, err
		}
		vt, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(vt, st.R) {
			return nil, errf(e, "inr payload type %s does not match %s", vt, st.R)
		}
		return st, nil

	case ast.Case: // rule +E
		vt, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		st, ok := vt.(ast.SumT)
		if !ok {
			return nil, errf(e, "case of non-sum type %s", vt)
		}
		lt, err := c.Expr(g.WithVar(e.X, st.L), sig, e.L)
		if err != nil {
			return nil, err
		}
		rt, err := c.Expr(g.WithVar(e.Y, st.R), sig, e.R)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(lt, rt) {
			return nil, errf(e, "case branches disagree: %s vs %s", lt, rt)
		}
		return lt, nil

	case ast.Ifz: // rule natE
		vt, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		if _, ok := vt.(ast.NatT); !ok {
			return nil, errf(e, "ifz scrutinee has type %s, want nat", vt)
		}
		zt, err := c.Expr(g, sig, e.Zero)
		if err != nil {
			return nil, err
		}
		st, err := c.Expr(g.WithVar(e.X, ast.NatT{}), sig, e.Succ)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(zt, st) {
			return nil, errf(e, "ifz branches disagree: %s vs %s", zt, st)
		}
		return zt, nil

	case ast.Let: // rule let
		t1, err := c.Expr(g, sig, e.E1)
		if err != nil {
			return nil, err
		}
		// Alias tracking (the first step of escape-analysis tightening):
		// a let whose right-hand side is a visible dcl location — or a
		// variable already aliasing one — binds a tracked alias rather
		// than an escape. The RHS's use count is credited here; accesses
		// through x attribute to the dcl site, so a counter captured only
		// by closures at statically known priorities keeps its tight
		// ceiling instead of widening to top.
		site := c.aliasSite(g, e.E1)
		if site >= 0 {
			c.Usage.creditAt(site)
		}
		return c.Expr(g.withAlias(e.X, t1, site), sig, e.E2)

	case ast.Fix: // rule fix
		if err := c.validType(g, e.T, e); err != nil {
			return nil, err
		}
		bt, err := c.Expr(g.WithVar(e.X, e.T), sig, e.E)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(bt, e.T) {
			return nil, errf(e, "fix body has type %s, want %s", bt, e.T)
		}
		return e.T, nil

	case ast.CmdVal: // rule cmdI
		if err := c.validPrio(g, e.P, e); err != nil {
			return nil, err
		}
		t, err := c.Cmd(g, sig, e.M, e.P)
		if err != nil {
			return nil, err
		}
		return ast.CmdT{T: t, P: e.P}, nil

	case ast.PLam: // rule ∀I
		g2 := g.WithPrioVar(e.Pi, e.C)
		t, err := c.Expr(g2, sig, e.Body)
		if err != nil {
			return nil, err
		}
		return ast.ForallT{Pi: e.Pi, C: e.C, T: t}, nil

	case ast.PApp: // rule ∀E
		vt, err := c.Expr(g, sig, e.V)
		if err != nil {
			return nil, err
		}
		ft, ok := vt.(ast.ForallT)
		if !ok {
			return nil, errf(e, "priority application of non-forall type %s", vt)
		}
		if err := c.validPrio(g, e.P, e); err != nil {
			return nil, err
		}
		pi := prio.Var(ft.Pi)
		if c.CheckPriorities {
			inst := ft.C.Subst(e.P, pi)
			if !g.pctx.Entails(inst) {
				return nil, errf(e, "priority %s does not satisfy constraints %s", e.P, inst)
			}
		}
		return ast.SubstPrioType(e.P, pi, ft.T), nil
	}
	return nil, errf(e, "unknown expression form %T", e)
}

// Cmd checks Γ ⊢RΣ m ∼: τ @ ρ and returns τ.
func (c *Checker) Cmd(g *Env, sig Signature, m ast.Cmd, at prio.Prio) (ast.Type, error) {
	switch m := m.(type) {
	case ast.Ret: // rule Ret
		return c.Expr(g, sig, m.E)

	case ast.Bind: // rule Bind
		et, err := c.Expr(g, sig, m.E)
		if err != nil {
			return nil, err
		}
		ct, ok := et.(ast.CmdT)
		if !ok {
			return nil, errf(m, "bind of non-command type %s", et)
		}
		if ct.P != at {
			return nil, errf(m, "bind of command at priority %s inside priority %s", ct.P, at)
		}
		// The command-level let sugar elaborates to
		// x ← cmd[at]{ret e}; m, so alias tracking must see through that
		// shape too: a bind of a literal ret of a visible location (or of
		// an existing alias) binds a tracked alias, not an escape.
		site := -1
		if cv, ok := m.E.(ast.CmdVal); ok {
			if r, ok := cv.M.(ast.Ret); ok {
				if site = c.aliasSite(g, r.E); site >= 0 {
					c.Usage.creditAt(site)
				}
			}
		}
		return c.Cmd(g.withAlias(m.X, ct.T, site), sig, m.M, at)

	case ast.Fcreate: // rule Create
		if err := c.validPrio(g, m.P, m); err != nil {
			return nil, err
		}
		if err := c.validType(g, m.T, m); err != nil {
			return nil, err
		}
		bt, err := c.Cmd(g, sig, m.M, m.P)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(bt, m.T) {
			return nil, errf(m, "fcreate body has type %s, want %s", bt, m.T)
		}
		return ast.ThreadT{T: m.T, P: m.P}, nil

	case ast.Ftouch: // rule Touch — the priority-inversion check
		et, err := c.Expr(g, sig, m.E)
		if err != nil {
			return nil, err
		}
		tt, ok := et.(ast.ThreadT)
		if !ok {
			return nil, errf(m, "ftouch of non-thread type %s", et)
		}
		if c.CheckPriorities && !g.pctx.Le(at, tt.P) {
			return nil, errf(m,
				"priority inversion: ftouch of thread at priority %s from priority %s (need %s ⪯ %s)",
				tt.P, at, at, tt.P)
		}
		return tt.T, nil

	case ast.Dcl: // rule Dcl
		if err := c.validType(g, m.T, m); err != nil {
			return nil, err
		}
		et, err := c.Expr(g, sig, m.E)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(et, m.T) {
			return nil, errf(m, "dcl initializer has type %s, want %s", et, m.T)
		}
		sig2 := sig.Clone()
		sig2[m.S] = SigEntry{Loc: true, T: m.T}
		if c.Usage != nil {
			c.Usage.push(m.S)
			defer c.Usage.pop(m.S)
		}
		return c.Cmd(g, sig2, m.M, at)

	case ast.Get: // rule Get
		et, err := c.Expr(g, sig, m.E)
		if err != nil {
			return nil, err
		}
		rt, ok := et.(ast.RefT)
		if !ok {
			return nil, errf(m, "dereference of non-reference type %s", et)
		}
		c.directTarget(g, m.E, at)
		return rt.T, nil

	case ast.Set: // rule Set
		lt, err := c.Expr(g, sig, m.L)
		if err != nil {
			return nil, err
		}
		rt, ok := lt.(ast.RefT)
		if !ok {
			return nil, errf(m, "assignment to non-reference type %s", lt)
		}
		vt, err := c.Expr(g, sig, m.R)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(vt, rt.T) {
			return nil, errf(m, "assignment of %s to %s reference", vt, rt.T)
		}
		c.directTarget(g, m.L, at)
		return rt.T, nil

	case ast.CAS: // Section 3.3 extension
		refT, err := c.Expr(g, sig, m.Ref)
		if err != nil {
			return nil, err
		}
		rt, ok := refT.(ast.RefT)
		if !ok {
			return nil, errf(m, "cas on non-reference type %s", refT)
		}
		oldT, err := c.Expr(g, sig, m.Old)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(oldT, rt.T) {
			return nil, errf(m, "cas expected-value type %s does not match %s", oldT, rt.T)
		}
		newT, err := c.Expr(g, sig, m.New)
		if err != nil {
			return nil, err
		}
		if !ast.TypeEqual(newT, rt.T) {
			return nil, errf(m, "cas new-value type %s does not match %s", newT, rt.T)
		}
		c.directTarget(g, m.Ref, at)
		return ast.NatT{}, nil
	}
	return nil, errf(m, "unknown command form %T", m)
}
