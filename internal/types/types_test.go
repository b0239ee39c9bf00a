package types

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/prio"
)

func checker() (*Checker, *Env) {
	o := prio.NewTotalOrder("low", "mid", "high")
	return New(o), NewEnv(o)
}

var (
	low  = prio.Const("low")
	mid  = prio.Const("mid")
	high = prio.Const("high")
)

func TestExprBasics(t *testing.T) {
	c, g := checker()
	cases := []struct {
		e    ast.Expr
		want ast.Type
	}{
		{ast.Unit{}, ast.UnitT{}},
		{ast.Nat{N: 7}, ast.NatT{}},
		{ast.Lam{X: "x", T: ast.NatT{}, Body: ast.Var{Name: "x"}}, ast.ArrowT{From: ast.NatT{}, To: ast.NatT{}}},
		{ast.Pair{L: ast.Nat{N: 1}, R: ast.Unit{}}, ast.ProdT{L: ast.NatT{}, R: ast.UnitT{}}},
		{ast.Inl{V: ast.Nat{N: 0}, T: ast.SumT{L: ast.NatT{}, R: ast.UnitT{}}}, ast.SumT{L: ast.NatT{}, R: ast.UnitT{}}},
		{ast.Let{X: "x", E1: ast.Nat{N: 1}, E2: ast.Var{Name: "x"}}, ast.NatT{}},
		{ast.App{F: ast.Lam{X: "x", T: ast.NatT{}, Body: ast.Var{Name: "x"}}, A: ast.Nat{N: 3}}, ast.NatT{}},
		{ast.Fst{V: ast.Pair{L: ast.Nat{N: 1}, R: ast.Unit{}}}, ast.NatT{}},
		{ast.Snd{V: ast.Pair{L: ast.Nat{N: 1}, R: ast.Unit{}}}, ast.UnitT{}},
		{ast.Ifz{V: ast.Nat{N: 0}, Zero: ast.Nat{N: 1}, X: "n", Succ: ast.Var{Name: "n"}}, ast.NatT{}},
		{ast.Fix{X: "f", T: ast.NatT{}, E: ast.Nat{N: 1}}, ast.NatT{}},
	}
	for _, tc := range cases {
		got, err := c.Expr(g, Signature{}, tc.e)
		if err != nil {
			t.Errorf("Expr(%s): %v", tc.e, err)
			continue
		}
		if !ast.TypeEqual(got, tc.want) {
			t.Errorf("Expr(%s) = %s, want %s", tc.e, got, tc.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	c, g := checker()
	bad := []ast.Expr{
		ast.Var{Name: "nope"},
		ast.Lam{X: "x", Body: ast.Var{Name: "x"}},                         // missing annotation
		ast.App{F: ast.Nat{N: 1}, A: ast.Nat{N: 2}},                       // apply non-function
		ast.Fst{V: ast.Nat{N: 1}},                                         // fst of nat
		ast.Inl{V: ast.Nat{N: 1}},                                         // missing annotation
		ast.Inl{V: ast.Nat{N: 1}, T: ast.NatT{}},                          // non-sum annotation
		ast.Inl{V: ast.Unit{}, T: ast.SumT{L: ast.NatT{}, R: ast.NatT{}}}, // wrong payload
		ast.Ifz{V: ast.Unit{}, Zero: ast.Nat{N: 0}, X: "n", Succ: ast.Nat{N: 0}},
		ast.Ifz{V: ast.Nat{N: 0}, Zero: ast.Nat{N: 0}, X: "n", Succ: ast.Unit{}},
		ast.Case{V: ast.Nat{N: 1}, X: "x", L: ast.Nat{N: 0}, Y: "y", R: ast.Nat{N: 0}},
		ast.Fix{X: "f", T: ast.NatT{}, E: ast.Unit{}},
		ast.Tid{Thread: "ghost"},
		ast.Ref{Loc: "ghost"},
		ast.App{
			F: ast.Lam{X: "x", T: ast.NatT{}, Body: ast.Var{Name: "x"}},
			A: ast.Unit{},
		},
		ast.CmdVal{P: prio.Const("ghost"), M: ast.Ret{E: ast.Unit{}}},
	}
	for _, e := range bad {
		if _, err := c.Expr(g, Signature{}, e); err == nil {
			t.Errorf("Expr(%s) should fail", e)
		}
	}
}

func TestSignatureRules(t *testing.T) {
	c, g := checker()
	sig := Signature{
		"a": {T: ast.NatT{}, P: high},
		"s": {Loc: true, T: ast.UnitT{}},
	}
	tt, err := c.Expr(g, sig, ast.Tid{Thread: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !ast.TypeEqual(tt, ast.ThreadT{T: ast.NatT{}, P: high}) {
		t.Errorf("Tid type = %s", tt)
	}
	rt, err := c.Expr(g, sig, ast.Ref{Loc: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if !ast.TypeEqual(rt, ast.RefT{T: ast.UnitT{}}) {
		t.Errorf("Ref type = %s", rt)
	}
	// Using a location name as a thread and vice versa fails.
	if _, err := c.Expr(g, sig, ast.Tid{Thread: "s"}); err == nil {
		t.Error("Tid of a location should fail")
	}
	if _, err := c.Expr(g, sig, ast.Ref{Loc: "a"}); err == nil {
		t.Error("Ref of a thread should fail")
	}
}

func TestTouchPriorityInversion(t *testing.T) {
	c, g := checker()
	sig := Signature{
		"hi": {T: ast.NatT{}, P: high},
		"lo": {T: ast.NatT{}, P: low},
	}
	// Touch a high thread from low: fine (low ⪯ high).
	if _, err := c.Cmd(g, sig, ast.Ftouch{E: ast.Tid{Thread: "hi"}}, low); err != nil {
		t.Errorf("low touching high should typecheck: %v", err)
	}
	// Touch equal priority: fine (reflexive).
	if _, err := c.Cmd(g, sig, ast.Ftouch{E: ast.Tid{Thread: "hi"}}, high); err != nil {
		t.Errorf("high touching high should typecheck: %v", err)
	}
	// Touch a low thread from high: priority inversion.
	_, err := c.Cmd(g, sig, ast.Ftouch{E: ast.Tid{Thread: "lo"}}, high)
	if err == nil {
		t.Fatal("high touching low must be a priority inversion")
	}
	if !strings.Contains(err.Error(), "priority inversion") {
		t.Errorf("unexpected error text: %v", err)
	}
	// With priority checking off, the same program is accepted.
	c.CheckPriorities = false
	if _, err := c.Cmd(g, sig, ast.Ftouch{E: ast.Tid{Thread: "lo"}}, high); err != nil {
		t.Errorf("no-priority mode should accept: %v", err)
	}
}

func TestCmdRules(t *testing.T) {
	c, g := checker()
	// dcl s : nat := 0 in x <- cmd[mid]{!ref[s]}; ret x — via Bind.
	m := ast.Dcl{
		T: ast.NatT{},
		S: "s",
		E: ast.Nat{N: 0},
		M: ast.Bind{
			X: "x",
			E: ast.CmdVal{P: mid, M: ast.Get{E: ast.Ref{Loc: "s"}}},
			M: ast.Ret{E: ast.Var{Name: "x"}},
		},
	}
	tt, err := c.Cmd(g, Signature{}, m, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !ast.TypeEqual(tt, ast.NatT{}) {
		t.Errorf("dcl/bind/get = %s, want nat", tt)
	}
	// Set returns the written type.
	m2 := ast.Dcl{
		T: ast.NatT{}, S: "s", E: ast.Nat{N: 0},
		M: ast.Set{L: ast.Ref{Loc: "s"}, R: ast.Nat{N: 5}},
	}
	tt2, err := c.Cmd(g, Signature{}, m2, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !ast.TypeEqual(tt2, ast.NatT{}) {
		t.Errorf("set = %s, want nat", tt2)
	}
	// CAS returns nat.
	m3 := ast.Dcl{
		T: ast.NatT{}, S: "s", E: ast.Nat{N: 0},
		M: ast.CAS{Ref: ast.Ref{Loc: "s"}, Old: ast.Nat{N: 0}, New: ast.Nat{N: 1}},
	}
	tt3, err := c.Cmd(g, Signature{}, m3, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !ast.TypeEqual(tt3, ast.NatT{}) {
		t.Errorf("cas = %s, want nat", tt3)
	}
}

func TestCmdErrors(t *testing.T) {
	c, g := checker()
	sig := Signature{"s": {Loc: true, T: ast.NatT{}}}
	bad := []struct {
		m  ast.Cmd
		at prio.Prio
	}{
		{ast.Get{E: ast.Nat{N: 1}}, mid},                                     // deref non-ref
		{ast.Set{L: ast.Nat{N: 1}, R: ast.Nat{N: 1}}, mid},                   // assign non-ref
		{ast.Set{L: ast.Ref{Loc: "s"}, R: ast.Unit{}}, mid},                  // wrong value type
		{ast.Ftouch{E: ast.Nat{N: 1}}, mid},                                  // touch non-thread
		{ast.Bind{X: "x", E: ast.Nat{N: 1}, M: ast.Ret{E: ast.Unit{}}}, mid}, // bind non-cmd
		{ast.Dcl{T: ast.NatT{}, S: "r", E: ast.Unit{}, M: ast.Ret{E: ast.Unit{}}}, mid},
		{ast.Fcreate{P: high, T: ast.UnitT{}, M: ast.Ret{E: ast.Nat{N: 1}}}, mid}, // body type mismatch
		{ast.CAS{Ref: ast.Ref{Loc: "s"}, Old: ast.Unit{}, New: ast.Nat{N: 1}}, mid},
		{ast.CAS{Ref: ast.Ref{Loc: "s"}, Old: ast.Nat{N: 0}, New: ast.Unit{}}, mid},
		{ast.CAS{Ref: ast.Nat{N: 0}, Old: ast.Nat{N: 0}, New: ast.Nat{N: 1}}, mid},
		// bind at mismatched priority
		{ast.Bind{X: "x", E: ast.CmdVal{P: low, M: ast.Ret{E: ast.Unit{}}}, M: ast.Ret{E: ast.Unit{}}}, mid},
	}
	for _, tc := range bad {
		if _, err := c.Cmd(g, sig, tc.m, tc.at); err == nil {
			t.Errorf("Cmd(%s) at %s should fail", tc.m, tc.at)
		}
	}
}

func TestFcreateAnyPriority(t *testing.T) {
	// The Create rule allows a thread of any priority to be created from
	// any priority — only touching is constrained.
	c, g := checker()
	m := ast.Fcreate{P: low, T: ast.NatT{}, M: ast.Ret{E: ast.Nat{N: 1}}}
	tt, err := c.Cmd(g, Signature{}, m, high)
	if err != nil {
		t.Fatal(err)
	}
	want := ast.ThreadT{T: ast.NatT{}, P: low}
	if !ast.TypeEqual(tt, want) {
		t.Errorf("fcreate = %s, want %s", tt, want)
	}
}

func TestPriorityPolymorphism(t *testing.T) {
	c, g := checker()
	// Λπ ∼ (mid ⪯ π). λx : unit thread[π]. cmd[mid]{ ftouch x }
	// A polymorphic touch that is safe for any priority ⪰ mid.
	e := ast.PLam{
		Pi: "pi",
		C:  prio.Constraints{{Lo: mid, Hi: prio.Var("pi")}},
		Body: ast.Lam{
			X: "x", T: ast.ThreadT{T: ast.UnitT{}, P: prio.Var("pi")},
			Body: ast.CmdVal{P: mid, M: ast.Ftouch{E: ast.Var{Name: "x"}}},
		},
	}
	ft, err := c.Expr(g, Signature{}, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ft.(ast.ForallT); !ok {
		t.Fatalf("expected forall type, got %s", ft)
	}
	// Instantiating at high satisfies mid ⪯ high.
	inst, err := c.Expr(g, Signature{}, ast.PApp{V: e, P: high})
	if err != nil {
		t.Fatalf("instantiation at high should succeed: %v", err)
	}
	wantArr := ast.ArrowT{
		From: ast.ThreadT{T: ast.UnitT{}, P: high},
		To:   ast.CmdT{T: ast.UnitT{}, P: mid},
	}
	if !ast.TypeEqual(inst, wantArr) {
		t.Errorf("instantiated type = %s, want %s", inst, wantArr)
	}
	// Instantiating at low violates mid ⪯ low.
	if _, err := c.Expr(g, Signature{}, ast.PApp{V: e, P: low}); err == nil {
		t.Error("instantiation at low must violate the constraint")
	}
	// Without priority checking, low instantiation is accepted.
	c.CheckPriorities = false
	if _, err := c.Expr(g, Signature{}, ast.PApp{V: e, P: low}); err != nil {
		t.Errorf("no-priority mode should accept: %v", err)
	}
}

func TestPolymorphicBodyUsesConstraint(t *testing.T) {
	c, g := checker()
	// Λπ ∼ (π ⪯ mid). a touch FROM π of a mid thread: needs π ⪯ mid,
	// which the constraint provides.
	sig := Signature{"m": {T: ast.UnitT{}, P: mid}}
	e := ast.PLam{
		Pi:   "pi",
		C:    prio.Constraints{{Lo: prio.Var("pi"), Hi: mid}},
		Body: ast.CmdVal{P: prio.Var("pi"), M: ast.Ftouch{E: ast.Tid{Thread: "m"}}},
	}
	if _, err := c.Expr(g, sig, e); err != nil {
		t.Errorf("constraint should justify the touch: %v", err)
	}
	// Without the constraint, the touch inside the body is unjustified.
	e2 := ast.PLam{
		Pi:   "pi",
		Body: ast.CmdVal{P: prio.Var("pi"), M: ast.Ftouch{E: ast.Tid{Thread: "m"}}},
	}
	if _, err := c.Expr(g, sig, e2); err == nil {
		t.Error("touch from unconstrained priority variable should fail")
	}
}

func TestDclScoping(t *testing.T) {
	c, g := checker()
	// The location declared by an inner dcl is visible in its body but
	// the outer command cannot use it.
	inner := ast.Dcl{T: ast.NatT{}, S: "s", E: ast.Nat{N: 1}, M: ast.Ret{E: ast.Ref{Loc: "s"}}}
	if _, err := c.Cmd(g, Signature{}, inner, mid); err != nil {
		t.Errorf("inner use of dcl'd location: %v", err)
	}
	outer := ast.Get{E: ast.Ref{Loc: "s"}}
	if _, err := c.Cmd(g, Signature{}, outer, mid); err == nil {
		t.Error("location should not escape into an unrelated command's signature")
	}
}

func TestSignatureCloneAndMerge(t *testing.T) {
	a := Signature{"x": {Loc: true, T: ast.NatT{}}}
	b := a.Clone()
	b["y"] = SigEntry{T: ast.UnitT{}, P: low}
	if _, ok := a["y"]; ok {
		t.Error("Clone must not share storage")
	}
	m := a.Merge(b)
	if len(m) != 2 {
		t.Errorf("Merge size = %d, want 2", len(m))
	}
	if _, ok := a["y"]; ok {
		t.Error("Merge must not mutate the receiver")
	}
}

func TestNestedCmdPriorities(t *testing.T) {
	c, g := checker()
	// A high-priority command that creates a low-priority thread whose
	// body touches a high thread — legal (low ⪯ high).
	sig := Signature{"h": {T: ast.NatT{}, P: high}}
	m := ast.Fcreate{
		P: low, T: ast.NatT{},
		M: ast.Ftouch{E: ast.Tid{Thread: "h"}},
	}
	if _, err := c.Cmd(g, sig, m, high); err != nil {
		t.Errorf("nested create/touch should typecheck: %v", err)
	}
	// But a high-priority body inside the low thread touching low fails.
	sig2 := Signature{"l": {T: ast.NatT{}, P: low}}
	m2 := ast.Fcreate{
		P: high, T: ast.NatT{},
		M: ast.Ftouch{E: ast.Tid{Thread: "l"}},
	}
	if _, err := c.Cmd(g, sig2, m2, low); err == nil {
		t.Error("high body touching low thread must fail wherever created")
	}
}

// TestRefUsageRecorder pins the derivation-export contract the compile
// backend builds ceilings from: direct Get/Set/CAS accesses record the
// command priority per dcl site, indirect uses mark the site escaped,
// and shadowed same-name dcls get distinct sites.
func TestRefUsageRecorder(t *testing.T) {
	c, g := checker()
	c.Usage = NewRefUsage()
	// dcl a := 0 in dcl b := 0 in x <- cmd[mid]{ !a }; ret (x, ref[b])
	// — a has one direct access at mid; b escapes into the pair.
	inner := ast.Dcl{
		T: ast.NatT{}, S: "b", E: ast.Nat{N: 0},
		M: ast.Bind{
			X: "x",
			E: ast.CmdVal{P: mid, M: ast.Get{E: ast.Ref{Loc: "a"}}},
			M: ast.Ret{E: ast.Pair{L: ast.Var{Name: "x"}, R: ast.Ref{Loc: "b"}}},
		},
	}
	m := ast.Dcl{T: ast.NatT{}, S: "a", E: ast.Nat{N: 0}, M: inner}
	if _, err := c.Cmd(g, Signature{}, m, mid); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	if len(c.Usage.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(c.Usage.Sites))
	}
	a, b := c.Usage.Sites[0], c.Usage.Sites[1]
	if a.Loc != "a" || b.Loc != "b" {
		t.Fatalf("site order %q,%q, want a,b", a.Loc, b.Loc)
	}
	if a.Escapes() || len(a.Accesses) != 1 || a.Accesses[0] != mid {
		t.Errorf("a: escapes=%v accesses=%v, want direct access at mid", a.Escapes(), a.Accesses)
	}
	if !b.Escapes() {
		t.Error("b flows into a pair and must be marked escaped")
	}
	// MaxAccess: non-escaping site resolves to its max level; escaping
	// site widens to top.
	level := func(p prio.Prio) (int, bool) {
		switch p {
		case low:
			return 0, true
		case mid:
			return 1, true
		case high:
			return 2, true
		}
		return 0, false
	}
	if got := a.MaxAccess(level, 2); got != 1 {
		t.Errorf("a.MaxAccess = %d, want 1", got)
	}
	if got := b.MaxAccess(level, 2); got != 2 {
		t.Errorf("b.MaxAccess = %d, want top (2)", got)
	}
}

// TestRefUsageShadowing: two dcls of one name produce two sites, each
// with its own accesses.
func TestRefUsageShadowing(t *testing.T) {
	c, g := checker()
	c.Usage = NewRefUsage()
	m := ast.Dcl{
		T: ast.NatT{}, S: "s", E: ast.Nat{N: 1},
		M: ast.Dcl{
			T: ast.NatT{}, S: "s", E: ast.Nat{N: 2},
			M: ast.Get{E: ast.Ref{Loc: "s"}},
		},
	}
	if _, err := c.Cmd(g, Signature{}, m, low); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	if len(c.Usage.Sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(c.Usage.Sites))
	}
	outer, innerSite := c.Usage.Sites[0], c.Usage.Sites[1]
	if len(outer.Accesses) != 0 {
		t.Errorf("outer shadowed site has accesses %v, want none", outer.Accesses)
	}
	if len(innerSite.Accesses) != 1 || innerSite.Accesses[0] != low {
		t.Errorf("inner site accesses %v, want one at low", innerSite.Accesses)
	}
}

// letChain is let x1 = 0 in let x2 = x1 in … in xn.
func letChain(n int) ast.Expr {
	name := func(i int) string { return "x" + strconv.Itoa(i) }
	var e ast.Expr = ast.Var{Name: name(n)}
	for i := n; i >= 1; i-- {
		var rhs ast.Expr = ast.Nat{N: 0}
		if i > 1 {
			rhs = ast.Var{Name: name(i - 1)}
		}
		e = ast.Let{X: name(i), E1: rhs, E2: e}
	}
	return e
}

// TestLetChainAllocsLinear: extending Γ is one allocation, so checking a
// let chain allocates once per binder — 2,000 binders stay under a
// ceiling about 10% above that, and twice the binders cost at most
// about twice the allocations.
func TestLetChainAllocsLinear(t *testing.T) {
	c, g := checker()
	allocs := func(n int) float64 {
		e := letChain(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Expr(g, Signature{}, e); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, a2 := allocs(1000), allocs(2000)
	t.Logf("let chain: %.0f allocs for 1,000 binders, %.0f for 2,000", a1, a2)
	if a2 > 2200 {
		t.Errorf("2,000-binder let chain: %.0f allocs, ceiling 2200", a2)
	}
	if a2 > 2.2*a1 {
		t.Errorf("let chain allocations not linear: %.0f for 1,000 binders, %.0f for 2,000", a1, a2)
	}
}

// TestRebindKillsAlias: once x aliases dcl site s, rebinding x to an
// unrelated value ends the alias — a use of the new x is not a use of s,
// so s keeps its tight ceiling; a use of the alias itself outside a
// direct access still widens s to top.
func TestRebindKillsAlias(t *testing.T) {
	cmdv := func(m ast.Cmd) ast.Expr { return ast.CmdVal{P: mid, M: m} }
	level := func(p prio.Prio) (int, bool) {
		l, ok := map[prio.Prio]int{low: 0, mid: 1, high: 2}[p]
		return l, ok
	}
	for _, tc := range []struct {
		name string
		// after runs once x has been bound to the alias and accessed
		// through it at mid.
		after ast.Cmd
		want  int
	}{
		{"rebound", ast.Bind{X: "x", E: cmdv(ast.Ret{E: ast.Nat{N: 5}}),
			M: ast.Ret{E: ast.Pair{L: ast.Var{Name: "x"}, R: ast.Var{Name: "a"}}}}, 1},
		{"escaped", ast.Ret{E: ast.Pair{L: ast.Var{Name: "x"}, R: ast.Var{Name: "a"}}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, g := checker()
			c.Usage = NewRefUsage()
			m := ast.Dcl{T: ast.NatT{}, S: "s", E: ast.Nat{N: 0},
				M: ast.Bind{X: "x", E: cmdv(ast.Ret{E: ast.Ref{Loc: "s"}}),
					M: ast.Bind{X: "a", E: cmdv(ast.Get{E: ast.Var{Name: "x"}}), M: tc.after}}}
			if _, err := c.Cmd(g, Signature{}, m, mid); err != nil {
				t.Fatalf("typecheck: %v", err)
			}
			site := c.Usage.Sites[0]
			if len(site.Accesses) != 1 || site.Accesses[0] != mid {
				t.Errorf("accesses %v, want one at mid through the alias", site.Accesses)
			}
			if got := site.MaxAccess(level, 2); got != tc.want {
				t.Errorf("ceiling %d, want %d (escapes=%v)", got, tc.want, site.Escapes())
			}
		})
	}
}
