package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerAtomicField enforces one access discipline per field: once any
// code in a package accesses a struct field through the sync/atomic
// function API (atomic.LoadInt32(&e.slot),
// atomic.AddInt64(&s.n, 1), ...), every other access to that field must
// be atomic too. A plain read races with the atomic writers — the race
// detector only catches it when a test happens to interleave, and on
// weakly-ordered hardware a plain read can observe a stale value
// forever. The fix is either full atomic access or migrating the field
// to the type-based API (atomic.Int32, atomic.Bool), which makes plain
// access unrepresentable.
//
// Scope is one package (fields of unexported structs do not leak), and
// the initial zero value from a composite literal is not an access —
// but a plain `x.f = 0` reset anywhere, constructors included, is
// flagged: constructors have been known to outlive their
// pre-publication innocence.
var AnalyzerAtomicField = &Analyzer{
	Name:          "atomicfield",
	Doc:           "a struct field accessed via sync/atomic anywhere may not be read or written plainly elsewhere",
	SkipTestFiles: true,
	SkipTestPkgs:  true,
	Run:           runAtomicField,
}

func runAtomicField(pass *Pass) {
	// Pass 1: collect fields that appear as &x.f arguments to sync/atomic
	// calls, and remember those exact selector nodes as sanctioned.
	atomicFields := make(map[*types.Var]bool)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld := fieldOf(pass.Info, sel); fld != nil {
					atomicFields[fld] = true
					sanctioned[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	// Pass 2: every other selector of an atomic field is a plain access.
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fld := fieldOf(pass.Info, sel)
			if fld == nil || !atomicFields[fld] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"access it with sync/atomic everywhere, or migrate the field to the type-based API (atomic.Int32/Int64/Bool) so plain access cannot compile",
				"field %s is accessed via sync/atomic elsewhere in this package; this plain access races with the atomic ones", fld.Name())
			return true
		})
	}
}

// fieldOf resolves a selector to the struct field it names, or nil for
// methods, package selectors, and unresolved expressions.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
		return nil
	}
	// Qualified references (pkg.Var) land in Uses, not Selections, and
	// are never struct fields.
	return nil
}
