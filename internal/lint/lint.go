// Package lint is gnnlint's engine: a dependency-free static-analysis
// driver (stdlib go/parser + go/types only — the module stays
// zero-dependency, so golang.org/x/tools is deliberately absent) that
// type-checks every package in the module from source and runs the
// project-specific analyzers mechanizing the repo's written contracts:
//
//   - ctxbg:        context must be threaded from callers, never minted
//     with context.Background()/TODO() inside non-test internal code.
//   - ctxflow:      a received context.Context must flow into every
//     blocking call in the same function that has a Ctx-taking variant.
//   - alignedio:    only storage.AlignedBuf (or staging-pool) memory may
//     reach the backend read / submit sinks, keeping the O_DIRECT path
//     reachable (DESIGN.md §9) — interprocedural within a package.
//   - errsentinel:  the module's error sentinels are matched with
//     errors.Is, never ==/!=.
//
// An analyzer stays only while it catches a seeded violation at a real
// site in the tree: TestSeededViolations applies one recorded
// substitution per analyzer to a copy of the module and requires exactly
// that analyzer to fire. Invariants a linter cannot see (refcounts,
// staging and quota grants returning to zero, goroutines joined) are
// checked by executing the code instead.
//
// Findings carry file:line, the analyzer name, and a one-line fix hint.
// There is no suppression directive: a finding is fixed, or the analyzer
// is changed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer report, pinned to a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	Name string
	Doc  string
	// SkipTests excludes *_test.go files from the walk and skips
	// test-harness packages (package name ending in "test", e.g.
	// storagetest, analyzertest): they exist to exercise contracts,
	// including deliberately violating them.
	SkipTests bool
	// OnlyInternal restricts the analyzer to packages whose import path
	// crosses an internal/ element.
	OnlyInternal bool
	Run          func(*Pass)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Info     *types.Info
	Files    []*ast.File
	// TestFile marks files that came from the package's _test.go set.
	TestFile map[*ast.File]bool

	findings *[]Finding
}

// SourceFiles returns the files the analyzer should walk, honoring its
// SkipTests setting.
func (p *Pass) SourceFiles() []*ast.File {
	if !p.Analyzer.SkipTests {
		return p.Files
	}
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.TestFile[f] {
			out = append(out, f)
		}
	}
	return out
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCtxBg,
		AnalyzerCtxFlow,
		AnalyzerAlignedIO,
		AnalyzerErrSentinel,
	}
}

// internalPath reports whether the import path crosses an internal/
// element (the scope of the ctx-threading contract).
func internalPath(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// testHarnessPkg reports whether the package is a test-support package
// by the repo's naming convention (storagetest, analyzertest, ...).
func testHarnessPkg(name string) bool {
	return strings.HasSuffix(name, "test")
}

// RunPackage runs the given analyzers over one loaded package and
// returns their findings sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		if a.OnlyInternal && !internalPath(pkg.Path) {
			continue
		}
		if a.SkipTests && testHarnessPkg(pkg.Name) {
			continue
		}
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Info:     pkg.Info,
			Files:    pkg.Files,
			TestFile: pkg.TestFile,
			findings: &findings,
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}
