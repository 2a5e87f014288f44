// Package analyzertest is the fixture harness for gnnlint's analyzers.
// A fixture is an ordinary Go package under internal/lint/testdata/src
// (the testdata element hides it from go build and the gnnlint ./...
// walk, while the import path still crosses internal/ so scoped
// analyzers fire). Expectations are comments on the offending line:
//
//	buf := make([]byte, 64)          // want "raw make"
//
// `want` matches a finding on that line by regexp; all findings must be
// matched and all expectations must fire, so the corpus proves both that
// violations are caught and that correct code stays silent.
package analyzertest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"gnndrive/internal/lint"
)

var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

// sharedLoader memoizes one Loader per test binary so the stdlib and
// module dependency type-checks are paid once, not per fixture.
func sharedLoader() (*lint.Loader, error) {
	loaderOnce.Do(func() {
		loader, loaderErr = lint.NewLoader(".")
	})
	return loader, loaderErr
}

var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package at dir (relative to the calling test's
// package directory), runs the single analyzer over it, and compares
// findings against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	ld, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	pkgs, err := ld.Load(abs, true)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			for _, te := range pkg.TypeErrors {
				t.Errorf("fixture must type-check: %s: %s", te.Fset.Position(te.Pos), te.Msg)
			}
			t.FailNow()
		}
		expects, err := parseExpectations(pkg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, lint.RunPackage(pkg, []*lint.Analyzer{a}), expects)
	}
}

func parseExpectations(pkg *lint.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out, nil
}

func check(t *testing.T, findings []lint.Finding, expects []*expectation) {
	t.Helper()
	for _, f := range findings {
		if !match(f, expects) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.re)
		}
	}
}

// match claims the first unmatched expectation on f's line whose regexp
// matches its message.
func match(f lint.Finding, expects []*expectation) bool {
	for _, e := range expects {
		if !e.matched && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}
