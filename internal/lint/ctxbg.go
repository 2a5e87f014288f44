package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxBg flags calls to context.Background() and context.TODO()
// in non-test internal code. The pipeline's cancellable-teardown
// contract (DESIGN.md §6) only holds when every blocking stage receives
// the caller's context; a context minted mid-stack silently detaches
// the work below it from Close/SIGTERM/watchdog cancellation.
var AnalyzerCtxBg = &Analyzer{
	Name:         "ctxbg",
	Doc:          "context must be threaded from callers; no context.Background()/TODO() in non-test internal code",
	SkipTests:    true,
	OnlyInternal: true,
	Run:          runCtxBg,
}

func runCtxBg(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); name == "Background" || name == "TODO" {
				pass.Reportf(call.Pos(),
					"thread the caller's ctx (add a Ctx variant if the signature lacks one)",
					"context.%s() detaches this call tree from cancellable teardown", name)
			}
			return true
		})
	}
}
