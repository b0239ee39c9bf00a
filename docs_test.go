package repro_test

import (
	"bufio"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the top-level documents whose back-ticked names must
// resolve against the tree.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "SERVING.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// lineRef is a `file.go:N` reference, fileRef a `x.go` or `X.md`
	// name and identRef a `Name`, `A.B`, `Name()` or `A.B(x, y)` Go
	// name; call arguments are not checked.
	lineRef  = regexp.MustCompile(`^([\w./-]*\w\.go):(\d+)$`)
	fileRef  = regexp.MustCompile(`^[\w./-]*\w\.(go|md)$`)
	identRef = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\([^()]*\))?$`)
)

// tree is what the docs may name: every identifier that go/scanner
// finds in a .go file, and every .go and .md file with its line count,
// by path and by base name.
type tree struct {
	idents map[string]bool
	lines  map[string]int      // slash path from the root → line count
	byBase map[string][]string // base name → slash paths
}

func loadTree(t *testing.T) *tree {
	tr := &tree{idents: map[string]bool{}, lines: map[string]int{}, byBase: map[string][]string{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p := filepath.ToSlash(path)
		tr.lines[p] = strings.Count(string(src), "\n")
		tr.byBase[d.Name()] = append(tr.byBase[d.Name()], p)
		if ext == ".go" {
			fset := token.NewFileSet()
			var s scanner.Scanner
			s.Init(fset.AddFile(p, -1, len(src)), src, nil, 0)
			for {
				_, tok, lit := s.Scan()
				if tok == token.EOF {
					break
				}
				if tok == token.IDENT {
					tr.idents[lit] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fileLines returns the line counts of the files a doc's file name may
// mean: the path itself when it has a directory, else every file of
// that base name.
func (tr *tree) fileLines(name string) []int {
	var paths []string
	if strings.Contains(name, "/") {
		paths = []string{name}
	} else {
		paths = tr.byBase[name]
	}
	var out []int
	for _, p := range paths {
		if n, ok := tr.lines[p]; ok {
			out = append(out, n)
		}
	}
	return out
}

// check returns why a back-ticked token does not resolve, or "".
func (tr *tree) check(tok string) string {
	if m := lineRef.FindStringSubmatch(tok); m != nil {
		want, _ := strconv.Atoi(m[2])
		for _, n := range tr.fileLines(m[1]) {
			if n >= want {
				return ""
			}
		}
		return "no such file, or it has fewer lines"
	}
	if fileRef.MatchString(tok) {
		if len(tr.fileLines(tok)) == 0 {
			return "no such file"
		}
		return ""
	}
	m := identRef.FindStringSubmatch(tok)
	if m == nil || strings.ToLower(m[1]) == m[1] && !strings.Contains(m[1], ".") {
		return ""
	}
	for _, part := range strings.Split(m[1], ".") {
		if !tr.idents[part] {
			return part + " is not an identifier in any .go file"
		}
	}
	return ""
}

// TestDocsNameWhatExists fails when README.md, ARCHITECTURE.md or
// SERVING.md names, in back-ticks, a Go identifier, a file or a
// file:line that the tree no longer has, so a change that deletes or
// renames code fails until its docs follow. Fenced code blocks are not
// checked.
func TestDocsNameWhatExists(t *testing.T) {
	tr := loadTree(t)
	for _, doc := range docFiles {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for ln := 1; sc.Scan(); ln++ {
			line := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if why := tr.check(m[1]); why != "" {
					t.Errorf("%s:%d: `%s`: %s", doc, ln, m[1], why)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}
