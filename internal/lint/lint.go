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
//     reachable (DESIGN.md §9) — interprocedural since v2.
//   - atomicfield:  a struct field accessed through sync/atomic anywhere
//     may not be read or written plainly elsewhere.
//   - extentbounds: offsets from layout extents must be bounds-checked
//     before slicing a buffer with them.
//   - goroleak:     goroutines in internal/core and internal/serve must
//     be joined (WaitGroup/channel) or carry a cancellable context.
//   - errsentinel:  the module's error sentinels are matched with
//     errors.Is, never ==/!=.
//   - refpair:      a Reservation or staging acquisition that neither
//     escapes nor is released on every return path is a leak —
//     interprocedural since v2.
//   - quotapair:    Staging.Carve quota views and serve admission grants
//     must reach Close/release on every path.
//   - sidecarpair:  .pidx / CRC sidecar writers must go through the
//     atomic temp+fsync+rename helpers, never bare os.WriteFile.
//
// The dataflow analyzers share a package-local interprocedural engine
// (ipa.go): summary-based taint and pairing facts cross function
// boundaries inside a package, so a raw buffer laundered through one
// helper call or a release delegated to a helper is still tracked.
//
// Findings carry file:line, the analyzer name, and a one-line fix hint.
// A `//gnnlint:ignore <analyzer> <reason>` directive suppresses a
// finding on its line (trailing comment) or the next line (own-line
// comment); the reason is mandatory and suppressions are kept as an
// audit trail (cmd/gnnlint -suppressed prints them).
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
	// SuppressReason is non-empty when the finding was suppressed by a
	// gnnlint:ignore directive; suppressed findings are returned
	// separately by Run as the audit trail.
	SuppressReason string
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
	// SkipTestFiles excludes *_test.go files from the walk.
	SkipTestFiles bool
	// SkipTestPkgs excludes test-harness packages (package name ending
	// in "test", e.g. storagetest, analyzertest): they exist to exercise
	// contracts, including deliberately violating them.
	SkipTestPkgs bool
	// OnlyInternal restricts the analyzer to packages whose import path
	// crosses an internal/ element.
	OnlyInternal bool
	Run          func(*Pass)
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *types.Package
	Info     *types.Info
	Files    []*ast.File
	// TestFile marks files that came from the package's _test.go set.
	TestFile map[*ast.File]bool

	directives *directiveIndex
	findings   *[]Finding
	suppressed *[]Finding

	// ipa is the package's interprocedural view (ipa.go), shared by every
	// analyzer pass so summary fixpoints run once per package.
	ipa *interp
}

// SourceFiles returns the files the analyzer should walk, honoring its
// SkipTestFiles setting.
func (p *Pass) SourceFiles() []*ast.File {
	if !p.Analyzer.SkipTestFiles {
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

// Reportf records a finding at pos unless a matching gnnlint:ignore
// directive covers the line, in which case it lands on the suppressed
// audit trail instead.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := p.Fset.Position(pos)
	f := Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	}
	if reason, ok := p.directives.match(position.Filename, position.Line, p.Analyzer.Name); ok {
		f.SuppressReason = reason
		*p.suppressed = append(*p.suppressed, f)
		return
	}
	*p.findings = append(*p.findings, f)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerCtxBg,
		AnalyzerCtxFlow,
		AnalyzerAlignedIO,
		AnalyzerAtomicField,
		AnalyzerExtentBounds,
		AnalyzerGoroLeak,
		AnalyzerErrSentinel,
		AnalyzerRefPair,
		AnalyzerQuotaPair,
		AnalyzerSidecarPair,
	}
}

// knownAnalyzers is the set of names a gnnlint:ignore directive may cite.
func knownAnalyzers() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
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
// returns the live findings and the suppressed audit trail, both sorted
// by position. Malformed gnnlint:ignore directives (missing analyzer,
// missing reason, or an unknown analyzer name) are themselves findings,
// attributed to the pseudo-analyzer "directive", and cannot be
// suppressed.
func RunPackage(pkg *Package, analyzers []*Analyzer) (findings, suppressed []Finding) {
	dirs := indexDirectives(pkg, knownAnalyzers())
	findings = append(findings, dirs.malformed...)
	ip := newInterp(pkg)
	for _, a := range analyzers {
		if a.OnlyInternal && !internalPath(pkg.Path) {
			continue
		}
		if a.SkipTestPkgs && testHarnessPkg(pkg.Name) {
			continue
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Files:      pkg.Files,
			TestFile:   pkg.TestFile,
			directives: dirs,
			findings:   &findings,
			suppressed: &suppressed,
			ipa:        ip,
		}
		a.Run(pass)
	}
	sortFindings(findings)
	sortFindings(suppressed)
	return findings, suppressed
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
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
}
