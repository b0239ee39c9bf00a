package parser

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/ast"
	"repro/internal/prio"
)

// Program is a parsed λ4i program: a priority order, the main command,
// and the priority main runs at.
type Program struct {
	Order    *prio.Order
	MainPrio prio.Prio
	MainType ast.Type
	Main     ast.Cmd
}

// Parse parses a full program and normalizes its main command to ANF.
func Parse(src string) (*Program, error) {
	var p parser
	p.init(src, prio.NewOrder())
	prog, err := p.program()
	if err != nil {
		return nil, p.lexFirst(err)
	}
	prog.Main = ast.NormalizeCmd(prog.Main)
	return prog, nil
}

// ParseExpr parses a single expression against an existing priority
// order, normalizing to ANF. Useful for tests and the REPL-style CLI.
func ParseExpr(src string, order *prio.Order) (ast.Expr, error) {
	var p parser
	p.init(src, order)
	e, err := p.expr()
	if err == nil {
		err = p.expect(tokEOF)
	}
	if err != nil {
		return nil, p.lexFirst(err)
	}
	return ast.Normalize(e), nil
}

// parser reads the lexer's tokens with two tokens of lookahead: tok is
// the next token, tok2 the one after it.
type parser struct {
	lx        lexer
	tok, tok2 token
	order     *prio.Order
	prioVars  []string // priority variables in scope, innermost last
	locs      []string // dcl-bound location names in scope, innermost last
}

func (p *parser) init(src string, order *prio.Order) {
	p.lx, p.order = newLexer(src), order
	p.tok = p.lx.next()
	p.tok2 = p.lx.next()
}

// lexFirst makes a failed parse report the first lexical error in the
// whole source, if there is one, ahead of the parse error: the lexer
// stopped at most two tokens past the parser, so the rest of the source
// is scanned only on this error path.
func (p *parser) lexFirst(err error) error {
	for p.lx.err == nil && p.tok2.kind != tokEOF {
		p.tok2 = p.lx.next()
	}
	if p.lx.err != nil {
		return p.lx.err
	}
	return err
}

func (p *parser) peek() token  { return p.tok }
func (p *parser) peek2() token { return p.tok2 }
func (p *parser) next() token {
	t := p.tok
	p.tok = p.tok2
	p.tok2 = p.lx.next()
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return &SyntaxError{Line: int(t.line), Col: int(t.col), Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind: end of input, a keyword or
// punctuation.
func (p *parser) expect(kind tokenKind) error {
	t := p.tok
	if t.kind != kind {
		want := fmt.Sprintf("%q", kindText[kind])
		if kind == tokEOF {
			want = "end of input"
		}
		return p.errf(t, "expected %s, found %s", want, t)
	}
	p.next()
	return nil
}

// accept consumes a keyword or punctuation token of the given kind if it
// is next.
func (p *parser) accept(kind tokenKind) bool {
	if p.tok.kind == kind {
		p.next()
		return true
	}
	return false
}

// ident consumes a name: an identifier, or a keyword used as one.
func (p *parser) ident() (string, error) {
	t := p.tok
	if !t.kind.word() {
		return "", p.errf(t, "expected identifier, found %s", t)
	}
	p.next()
	return t.text, nil
}

// program := ("priority" IDENT | "order" IDENT "<" IDENT)*
//
//	"main" ":" type "@" prio "=" "{" cmd "}"
func (p *parser) program() (*Program, error) {
	for {
		switch {
		case p.accept(kwPriority):
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			p.order.Declare(name)
		case p.accept(kwOrder):
			t := p.peek()
			lo, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokLt); err != nil {
				return nil, err
			}
			hi, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.order.DeclareLess(prio.Const(lo), prio.Const(hi)); err != nil {
				return nil, p.errf(t, "%v", err)
			}
		case p.accept(kwMain):
			if err := p.expect(tokColon); err != nil {
				return nil, err
			}
			ty, err := p.typ()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokAt); err != nil {
				return nil, err
			}
			mp, err := p.prio()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokEq); err != nil {
				return nil, err
			}
			if err := p.expect(tokLBrace); err != nil {
				return nil, err
			}
			m, err := p.cmd(mp)
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBrace); err != nil {
				return nil, err
			}
			if err := p.expect(tokEOF); err != nil {
				return nil, err
			}
			return &Program{Order: p.order, MainPrio: mp, MainType: ty, Main: m}, nil
		default:
			return nil, p.errf(p.peek(), "expected priority, order, or main declaration, found %s", p.peek())
		}
	}
}

// prio parses a priority reference: a declared constant or an in-scope
// variable (optionally written 'name).
func (p *parser) prio() (prio.Prio, error) {
	if p.accept(tokQuote) {
		name, err := p.ident()
		if err != nil {
			return prio.Prio{}, err
		}
		return prio.Var(name), nil
	}
	t := p.peek()
	name, err := p.ident()
	if err != nil {
		return prio.Prio{}, err
	}
	if slices.Contains(p.prioVars, name) {
		return prio.Var(name), nil
	}
	if !p.order.Declared(name) {
		return prio.Prio{}, p.errf(t, "undeclared priority %q", name)
	}
	return prio.Const(name), nil
}

// constraints := prio "<=" prio ("," prio "<=" prio)*
func (p *parser) constraints() (prio.Constraints, error) {
	var cs prio.Constraints
	for {
		lo, err := p.prio()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokLe); err != nil {
			return nil, err
		}
		hi, err := p.prio()
		if err != nil {
			return nil, err
		}
		cs = append(cs, prio.Constraint{Lo: lo, Hi: hi})
		if !p.accept(tokComma) {
			return cs, nil
		}
	}
}

// typ := sumprod ("->" typ)?        (arrow is right-associative)
func (p *parser) typ() (ast.Type, error) {
	lhs, err := p.sumProdType()
	if err != nil {
		return nil, err
	}
	if p.accept(tokArrow) {
		rhs, err := p.typ()
		if err != nil {
			return nil, err
		}
		return ast.ArrowT{From: lhs, To: rhs}, nil
	}
	return lhs, nil
}

// sumProdType := postfixType (("*"|"+") postfixType)*
func (p *parser) sumProdType() (ast.Type, error) {
	lhs, err := p.postfixType()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokStar):
			rhs, err := p.postfixType()
			if err != nil {
				return nil, err
			}
			lhs = ast.ProdT{L: lhs, R: rhs}
		case p.accept(tokPlus):
			rhs, err := p.postfixType()
			if err != nil {
				return nil, err
			}
			lhs = ast.SumT{L: lhs, R: rhs}
		default:
			return lhs, nil
		}
	}
}

// postfixType := baseType ("ref" | "thread" "[" prio "]" | "cmd" "[" prio "]")*
func (p *parser) postfixType() (ast.Type, error) {
	t, err := p.baseType()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(kwRef):
			t = ast.RefT{T: t}
		case p.accept(kwThread):
			if err := p.expect(tokLBrack); err != nil {
				return nil, err
			}
			pr, err := p.prio()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			t = ast.ThreadT{T: t, P: pr}
		case p.accept(kwCmd):
			if err := p.expect(tokLBrack); err != nil {
				return nil, err
			}
			pr, err := p.prio()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			t = ast.CmdT{T: t, P: pr}
		default:
			return t, nil
		}
	}
}

// baseType := "unit" | "nat" | "(" typ ")" | "forall" IDENT ("~" cs)? "." typ
func (p *parser) baseType() (ast.Type, error) {
	switch {
	case p.accept(kwUnit):
		return ast.UnitT{}, nil
	case p.accept(kwNat):
		return ast.NatT{}, nil
	case p.accept(tokLParen):
		t, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return t, nil
	case p.accept(kwForall):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var cs prio.Constraints
		p.prioVars = append(p.prioVars, name)
		if p.accept(tokTilde) {
			cs, err = p.constraints()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokDot); err != nil {
			return nil, err
		}
		body, err := p.typ()
		if err != nil {
			return nil, err
		}
		p.prioVars = p.prioVars[:len(p.prioVars)-1]
		return ast.ForallT{Pi: name, C: cs, T: body}, nil
	}
	return nil, p.errf(p.peek(), "expected a type, found %s", p.peek())
}

// cmd parses a command executing at priority `at` (used to elaborate the
// command-level let sugar: let x = e in m ⇒ x ← cmd[at]{ret e}; m).
func (p *parser) cmd(at prio.Prio) (ast.Cmd, error) {
	t := p.peek()
	switch {
	case p.accept(kwLet):
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokEq); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.accept(kwIn) {
			return nil, p.errf(p.peek(), "expected 'in' in command let, found %s", p.peek())
		}
		m, err := p.cmd(at)
		if err != nil {
			return nil, err
		}
		return ast.Bind{X: x, E: ast.CmdVal{P: at, M: ast.Ret{E: e}}, M: m}, nil

	case p.accept(kwRet):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Ret{E: e}, nil

	case p.accept(kwFcreate):
		if err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		pr, err := p.prio()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		ty, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		m, err := p.cmd(pr)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return ast.Fcreate{P: pr, T: ty, M: m}, nil

	case p.accept(kwFtouch):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Ftouch{E: e}, nil

	case p.accept(kwDcl):
		s, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokColon); err != nil {
			return nil, err
		}
		ty, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.accept(kwIn) {
			return nil, p.errf(p.peek(), "expected 'in' after dcl initializer, found %s", p.peek())
		}
		p.locs = append(p.locs, s)
		m, err := p.cmd(at)
		p.locs = p.locs[:len(p.locs)-1]
		if err != nil {
			return nil, err
		}
		return ast.Dcl{T: ty, S: s, E: e, M: m}, nil

	case p.accept(kwCas):
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		ref, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, err
		}
		old, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokComma); err != nil {
			return nil, err
		}
		nw, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return ast.CAS{Ref: ref, Old: old, New: nw}, nil

	case p.accept(tokBang):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Get{E: e}, nil

	case t.kind.word() && p.peek2().kind == tokLArrow:
		x, _ := p.ident()
		p.next() // <-
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		m, err := p.cmd(at)
		if err != nil {
			return nil, err
		}
		return ast.Bind{X: x, E: e, M: m}, nil

	default: // assignment e1 := e2
		lhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Set{L: lhs, R: rhs}, nil
	}
}

// expr parses an expression (not yet normalized).
func (p *parser) expr() (ast.Expr, error) {
	switch {
	case p.accept(kwFn):
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokColon); err != nil {
			return nil, err
		}
		ty, err := p.typ()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokFatArrow); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Lam{X: x, T: ty, Body: body}, nil

	case p.accept(kwLet):
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokEq); err != nil {
			return nil, err
		}
		e1, err := p.expr()
		if err != nil {
			return nil, err
		}
		if !p.accept(kwIn) {
			return nil, p.errf(p.peek(), "expected 'in' in let, found %s", p.peek())
		}
		e2, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Let{X: x, E1: e1, E2: e2}, nil

	case p.accept(kwIfz):
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		zero, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokDot); err != nil {
			return nil, err
		}
		succ, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return ast.Ifz{V: v, Zero: zero, X: x, Succ: succ}, nil

	case p.accept(kwCase):
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokDot); err != nil {
			return nil, err
		}
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		y, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokDot); err != nil {
			return nil, err
		}
		r, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return ast.Case{V: v, X: x, L: l, Y: y, R: r}, nil

	case p.accept(kwFix):
		x, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokColon); err != nil {
			return nil, err
		}
		ty, err := p.typ()
		if err != nil {
			return nil, err
		}
		if !p.accept(kwIs) {
			return nil, p.errf(p.peek(), "expected 'is' in fix, found %s", p.peek())
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return ast.Fix{X: x, T: ty, E: body}, nil

	case p.accept(kwPfn):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		var cs prio.Constraints
		p.prioVars = append(p.prioVars, name)
		if p.accept(tokTilde) {
			cs, err = p.constraints()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokFatArrow); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.prioVars = p.prioVars[:len(p.prioVars)-1]
		return ast.PLam{Pi: name, C: cs, Body: body}, nil

	case p.accept(kwInl):
		return p.injection(true)
	case p.accept(kwInr):
		return p.injection(false)

	case p.accept(kwFst):
		v, err := p.appExpr()
		if err != nil {
			return nil, err
		}
		return ast.Fst{V: v}, nil
	case p.accept(kwSnd):
		v, err := p.appExpr()
		if err != nil {
			return nil, err
		}
		return ast.Snd{V: v}, nil
	}
	return p.appExpr()
}

// injection parses inl/inr "[" type "]" appExpr.
func (p *parser) injection(left bool) (ast.Expr, error) {
	if err := p.expect(tokLBrack); err != nil {
		return nil, err
	}
	ty, err := p.typ()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRBrack); err != nil {
		return nil, err
	}
	v, err := p.appExpr()
	if err != nil {
		return nil, err
	}
	if left {
		return ast.Inl{V: v, T: ty}, nil
	}
	return ast.Inr{V: v, T: ty}, nil
}

// appExpr := primary (primary | "[" prio "]")*
func (p *parser) appExpr() (ast.Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokLBrack {
			p.next()
			pr, err := p.prio()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRBrack); err != nil {
				return nil, err
			}
			e = ast.PApp{V: e, P: pr}
			continue
		}
		if p.startsPrimary(t) {
			arg, err := p.primary()
			if err != nil {
				return nil, err
			}
			e = ast.App{F: e, A: arg}
			continue
		}
		return e, nil
	}
}

func (p *parser) startsPrimary(t token) bool {
	switch t.kind {
	case tokNumber, tokIdent, kwCmd, tokLParen:
		return true
	}
	return false
}

// primary := IDENT | NUMBER | "()" | "(" expr ")" | "(" expr "," expr ")"
//
//	| "cmd" "[" prio "]" "{" cmd "}"
func (p *parser) primary() (ast.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf(t, "bad number: %v", err)
		}
		return ast.Nat{N: n}, nil

	case t.kind == kwCmd:
		p.next()
		if err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		pr, err := p.prio()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		if err := p.expect(tokLBrace); err != nil {
			return nil, err
		}
		m, err := p.cmd(pr)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		return ast.CmdVal{P: pr, M: m}, nil

	case t.kind == tokIdent:
		p.next()
		if slices.Contains(p.locs, t.text) {
			return ast.Ref{Loc: t.text}, nil
		}
		return ast.Var{Name: t.text}, nil

	case t.kind == tokLParen:
		p.next()
		if p.accept(tokRParen) {
			return ast.Unit{}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.accept(tokComma) {
			e2, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return ast.Pair{L: e, R: e2}, nil
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf(t, "expected an expression, found %s", t)
}
