package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode"
)

// oracleLex is the slice-building lexer the streaming lexer replaced,
// kept as the test oracle: it scans with unicode.IsLetter/IsDigit and
// strings.HasPrefix, and resolves kinds through its own spelled-out
// tables, so it shares no classification code with lexer.next.
func oracleLex(src string) ([]token, error) {
	var toks []token
	var line, col int32 = 1, 1
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
			kind := tokIdent
			if k, ok := oracleKeywords[src[start:i]]; ok {
				kind = k
			}
			toks = append(toks, token{kind: kind, text: src[start:i], line: sl, col: sc})
		default:
			matched := false
			for _, p := range oraclePuncts {
				if strings.HasPrefix(src[i:], p.text) {
					toks = append(toks, token{kind: p.kind, text: p.text, line: line, col: col})
					advance(len(p.text))
					matched = true
					break
				}
			}
			if !matched {
				return nil, &SyntaxError{Line: int(line), Col: int(col), Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, line: line, col: col})
	return toks, nil
}

var oracleKeywords = map[string]tokenKind{
	"priority": kwPriority, "order": kwOrder, "main": kwMain, "ref": kwRef,
	"thread": kwThread, "cmd": kwCmd, "unit": kwUnit, "nat": kwNat,
	"forall": kwForall, "let": kwLet, "in": kwIn, "ret": kwRet,
	"fcreate": kwFcreate, "ftouch": kwFtouch, "dcl": kwDcl, "cas": kwCas,
	"fn": kwFn, "ifz": kwIfz, "case": kwCase, "fix": kwFix, "is": kwIs,
	"pfn": kwPfn, "inl": kwInl, "inr": kwInr, "fst": kwFst, "snd": kwSnd,
}

// oraclePuncts lists multi-character punctuation first so maximal munch
// wins.
var oraclePuncts = []struct {
	text string
	kind tokenKind
}{
	{"<-", tokLArrow}, {"<=", tokLe}, {"=>", tokFatArrow}, {"->", tokArrow},
	{":=", tokAssign}, {"(", tokLParen}, {")", tokRParen}, {"{", tokLBrace},
	{"}", tokRBrace}, {"[", tokLBrack}, {"]", tokRBrack}, {";", tokSemi},
	{",", tokComma}, {".", tokDot}, {"<", tokLt}, {"=", tokEq},
	{":", tokColon}, {"!", tokBang}, {"'", tokQuote}, {"*", tokStar},
	{"+", tokPlus}, {"~", tokTilde}, {"@", tokAt},
}

// streamLex drains the streaming lexer into a slice.
func streamLex(src string) ([]token, error) {
	lx := newLexer(src)
	var toks []token
	for {
		t := lx.next()
		switch t.kind {
		case tokErr:
			return nil, lx.err
		case tokEOF:
			return append(toks, t), nil
		}
		toks = append(toks, t)
	}
}

// checkLexAgainstOracle asserts that the streaming lexer yields the
// oracle's (kind, text, line, col) stream, or its exact SyntaxError, and
// that Parse reports that lexical error ahead of any parse error.
func checkLexAgainstOracle(t *testing.T, src string) {
	want, wantErr := oracleLex(src)
	got, gotErr := streamLex(src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("lex(%q) error = %v, oracle %v", src, gotErr, wantErr)
	}
	if wantErr != nil {
		if _, err := Parse(src); !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("Parse(%q) error = %v, want the lexical error %v", src, err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("lex(%q) token %d = %+v, oracle %+v", src, i, got[i], want[i])
			}
		}
		t.Fatalf("lex(%q) yields %d tokens, oracle %d", src, len(got), len(want))
	}
}

func exampleSources(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob("../../examples/l4i/*.l4i")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no example programs found: %v", err)
	}
	srcs := map[string]string{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(path), ".l4i")] = string(b)
	}
	return srcs
}

func TestLexMatchesOracle(t *testing.T) {
	for name, src := range exampleSources(t) {
		t.Run(name, func(t *testing.T) { checkLexAgainstOracle(t, src) })
	}
	for _, src := range []string{
		"", "-", "/", "--", "-->x", "<-<=<", "a1_b2 9x", "x\r\n\ty", "#",
		"ok\n  then $", "nat\xc3\xa9 \xaa\xb5", "\xd7", "1 - 2", "a // b\nc -- d",
		"let in = 1 in in", ":=:", "=>=", "''", "main:nat@p={ret 1}",
	} {
		checkLexAgainstOracle(t, src)
	}
}

func TestKindTextMatchesKeywords(t *testing.T) {
	for k := kwPriority; k < numKinds; k++ {
		if kindText[k] == "" {
			t.Errorf("kind %d has no spelling", k)
		}
		if k.word() && keyword(kindText[k]) != k {
			t.Errorf("keyword(%q) = %d, want %d", kindText[k], keyword(kindText[k]), k)
		}
	}
}

// FuzzLex checks the streaming lexer against the oracle on arbitrary
// input, seeded with the example programs.
func FuzzLex(f *testing.F) {
	for _, src := range exampleSources(f) {
		f.Add(src)
	}
	f.Add("priority p\nmain : nat @ p = { ret # }")
	f.Fuzz(checkLexAgainstOracle)
}

// TestParseAllocCeilings pins Parse's bytes and allocations per call on
// the examples, about 10% above what the streaming lexer and the AST
// cost. A token slice or per-token allocation creeping back fails here.
func TestParseAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srcs := exampleSources(t)
	for _, tc := range []struct {
		name          string
		bytes, allocs float64
	}{
		{"fib", 3240, 73},      // measured 2944 B, 66 allocs
		{"seq", 10780, 289},    // measured 9797 B, 262 allocs
		{"counter", 3350, 72},  // measured 3040 B, 65 allocs
		{"pipeline", 3300, 83}, // measured 2996 B, 75 allocs
	} {
		src, ok := srcs[tc.name]
		if !ok {
			t.Fatalf("no example %s", tc.name)
		}
		bytes, allocs := parseCost(t, src)
		t.Logf("%s: %.0f B/op, %.0f allocs/op", tc.name, bytes, allocs)
		if bytes > tc.bytes || allocs > tc.allocs {
			t.Errorf("%s: %.0f B/op and %.0f allocs/op, ceilings %.0f and %.0f", tc.name, bytes, allocs, tc.bytes, tc.allocs)
		}
	}
}

// parseCost is the mean heap bytes and allocations of one Parse of src,
// measured like testing.AllocsPerRun: one P, after a warm-up call.
func parseCost(t *testing.T, src string) (bytes, allocs float64) {
	const runs = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		Parse(src)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, float64(m1.Mallocs-m0.Mallocs) / runs
}
