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

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // one of the punctuation strings below
)

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	case tokIdent:
		return fmt.Sprintf("identifier %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// puncts lists multi-character punctuation first so maximal munch wins.
var puncts = []string{
	"<-", "<=", "=>", "->", ":=", "(", ")", "{", "}", "[", "]",
	";", ",", ".", "<", "=", ":", "!", "'", "*", "+", "~", "@",
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lex converts source text to tokens. Comments run from "--" or "//" to
// end of line.
func lex(src string) ([]token, error) {
	// λ4i source averages over four bytes a token, so one allocation
	// usually holds them all.
	toks := make([]token, 0, len(src)/4+1)
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case strings.HasPrefix(src[i:], "--") || strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}
		case unicode.IsDigit(rune(c)):
			start, sl, sc := i, line, col
			for i < len(src) && unicode.IsDigit(rune(src[i])) {
				advance(1)
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], line: sl, col: sc})
		case unicode.IsLetter(rune(c)) || c == '_':
			start, sl, sc := i, line, col
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				advance(1)
			}
			toks = append(toks, token{kind: tokIdent, text: src[start:i], line: sl, col: sc})
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, token{kind: tokPunct, text: p, line: line, col: col})
					advance(len(p))
					matched = true
					break
				}
			}
			if !matched {
				return nil, &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}
