// Package parser implements a lexer and recursive-descent parser for a
// concrete syntax of λ4i. A program declares a priority order and a main
// command:
//
//	priority low
//	priority high
//	order low < high
//
//	main : unit @ high = {
//	  dcl c : nat := 0 in
//	  h <- cmd[high]{ fcreate[low; nat] { ret 42 } };
//	  ...
//	  ret ()
//	}
//
// Parsed expressions are normalized to A-normal form, so the machine can
// execute them directly.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens. Every keyword and every
// punctuation string has its own kind, resolved once by the lexer, so
// the parser dispatches on kinds and never compares token text.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokErr           // the lexer failed; lexer.err says where and why
	tokNumber
	tokIdent

	// Keywords: words the grammar gives a meaning to. They lex like
	// identifiers and, where the grammar expects a name, serve as one.
	kwPriority
	kwOrder
	kwMain
	kwRef
	kwThread
	kwCmd
	kwUnit
	kwNat
	kwForall
	kwLet
	kwIn
	kwRet
	kwFcreate
	kwFtouch
	kwDcl
	kwCas
	kwFn
	kwIfz
	kwCase
	kwFix
	kwIs
	kwPfn
	kwInl
	kwInr
	kwFst
	kwSnd

	// Punctuation, two-character spellings first: byFirst relies on
	// the order for maximal munch.
	tokLArrow   // <-
	tokLe       // <=
	tokFatArrow // =>
	tokArrow    // ->
	tokAssign   // :=
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBrack
	tokRBrack
	tokSemi
	tokComma
	tokDot
	tokLt
	tokEq
	tokColon
	tokBang
	tokQuote
	tokStar
	tokPlus
	tokTilde
	tokAt

	numKinds
)

// kindText spells each keyword and punctuation kind.
var kindText = [numKinds]string{
	kwPriority: "priority", kwOrder: "order", kwMain: "main", kwRef: "ref",
	kwThread: "thread", kwCmd: "cmd", kwUnit: "unit", kwNat: "nat",
	kwForall: "forall", kwLet: "let", kwIn: "in", kwRet: "ret",
	kwFcreate: "fcreate", kwFtouch: "ftouch", kwDcl: "dcl", kwCas: "cas",
	kwFn: "fn", kwIfz: "ifz", kwCase: "case", kwFix: "fix", kwIs: "is",
	kwPfn: "pfn", kwInl: "inl", kwInr: "inr", kwFst: "fst", kwSnd: "snd",

	tokLArrow: "<-", tokLe: "<=", tokFatArrow: "=>", tokArrow: "->",
	tokAssign: ":=", tokLParen: "(", tokRParen: ")", tokLBrace: "{",
	tokRBrace: "}", tokLBrack: "[", tokRBrack: "]", tokSemi: ";",
	tokComma: ",", tokDot: ".", tokLt: "<", tokEq: "=", tokColon: ":",
	tokBang: "!", tokQuote: "'", tokStar: "*", tokPlus: "+",
	tokTilde: "~", tokAt: "@",
}

// byFirst lists the keyword and punctuation kinds by their first byte.
// Kinds are appended in declaration order, which puts two-character
// punctuation ahead of one-character punctuation with the same first
// byte, so the first prefix match is the longest.
var byFirst = func() (t [256][]tokenKind) {
	for k := kwPriority; k < numKinds; k++ {
		c := kindText[k][0]
		t[c] = append(t[c], k)
	}
	return t
}()

// keyword resolves a word to its keyword kind, or to tokIdent.
func keyword(w string) tokenKind {
	for _, k := range byFirst[w[0]] {
		if kindText[k] == w {
			return k
		}
	}
	return tokIdent
}

// word reports whether the token is an identifier or a keyword.
func (k tokenKind) word() bool { return k == tokIdent || (k >= kwPriority && k < tokLArrow) }

// token is one lexical token with its source position. text is a slice
// of the source.
type token struct {
	kind      tokenKind
	line, col int32
	text      string
}

func (t token) String() string {
	switch {
	case t.kind == tokEOF:
		return "end of input"
	case t.kind == tokErr:
		return "invalid input"
	case t.kind == tokNumber:
		return fmt.Sprintf("number %s", t.text)
	case t.kind.word():
		return fmt.Sprintf("identifier %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Byte classes. A byte is classified as the rune of the same value, so
// bytes 0x80–0xff that unicode calls letters (Latin-1 ª, µ, À…) start and
// continue identifiers.
const (
	cOther uint8 = iota
	cSpace
	cDigit
	cLetter // a letter or '_'
)

var byteClass = func() (cls [256]uint8) {
	for c := range cls {
		switch r := rune(c); {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			cls[c] = cSpace
		case unicode.IsDigit(r):
			cls[c] = cDigit
		case unicode.IsLetter(r) || r == '_':
			cls[c] = cLetter
		}
	}
	return cls
}()

// lexer produces tokens from src on demand. Comments run from "--" or
// "//" to end of line. After the end of input it keeps returning
// tokEOF; after an error it keeps returning tokErr, with err set.
type lexer struct {
	src       string
	i         int
	line, col int32
	err       *SyntaxError
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// next scans and returns the next token.
func (lx *lexer) next() token {
	if lx.err != nil {
		return token{kind: tokErr, line: int32(lx.err.Line), col: int32(lx.err.Col)}
	}
	src := lx.src
	for lx.i < len(src) {
		c := src[lx.i]
		switch byteClass[c] {
		case cSpace:
			lx.i++
			if c == '\n' {
				lx.line++
				lx.col = 1
			} else {
				lx.col++
			}
			continue
		case cDigit:
			return lx.span(tokNumber, cDigit)
		case cLetter:
			t := lx.span(tokIdent, cLetter)
			t.kind = keyword(t.text)
			return t
		}
		rest := src[lx.i:]
		if strings.HasPrefix(rest, "--") || strings.HasPrefix(rest, "//") {
			for lx.i < len(src) && src[lx.i] != '\n' {
				lx.i++
				lx.col++
			}
			continue
		}
		for _, k := range byFirst[c] {
			if p := kindText[k]; strings.HasPrefix(rest, p) {
				t := token{kind: k, text: rest[:len(p)], line: lx.line, col: lx.col}
				lx.i += len(p)
				lx.col += int32(len(p))
				return t
			}
		}
		lx.err = &SyntaxError{Line: int(lx.line), Col: int(lx.col), Msg: fmt.Sprintf("unexpected character %q", c)}
		return token{kind: tokErr, line: lx.line, col: lx.col}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col}
}

// span scans a number (cont == cDigit) or an identifier (cont ==
// cLetter, which also continues with digits) starting at the current
// byte. Neither contains a newline.
func (lx *lexer) span(kind tokenKind, cont uint8) token {
	src, start := lx.src, lx.i
	for lx.i++; lx.i < len(src); lx.i++ {
		if c := byteClass[src[lx.i]]; c != cont && (cont != cLetter || c != cDigit) {
			break
		}
	}
	t := token{kind: kind, text: src[start:lx.i], line: lx.line, col: lx.col}
	lx.col += int32(lx.i - start)
	return t
}
