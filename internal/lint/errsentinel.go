package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerErrSentinel flags identity comparisons (==, !=, and
// switch-case equality) against the module's error sentinels. Every
// layer wraps errors with %w — CheckAlign wraps ErrUnaligned, the
// checkpoint loader wraps ErrCorrupt, retry policies wrap transient
// read errors — so identity comparison silently stops matching the
// moment a wrap is introduced; errors.Is is the only correct match.
// This analyzer runs over test files too: tests asserting on sentinels
// break the same way.
var AnalyzerErrSentinel = &Analyzer{
	Name: "errsentinel",
	Doc:  "module error sentinels must be matched with errors.Is, never ==/!=",
	Run:  runErrSentinel,
}

// sentinelNames is the contract's sentinel set: storage.ErrClosed and
// ErrUnaligned, the checkpoint sentinels and the dataset container's
// ErrCorrupt, the integrity-layer sentinels (ErrChecksum/ErrQuarantined
// are always surfaced wrapped, often doubly so, since a quarantined read
// wraps both at once), the serve admission
// sentinels (ErrOverloaded arrives wrapped with the queue depth), the
// fault-injection sentinels retry policies wrap, and the memory-budget
// and pipeline-health sentinels. Matching is by package-level error
// variable name, so a sentinel is covered without naming its package.
var sentinelNames = map[string]bool{
	"ErrClosed":          true,
	"ErrUnaligned":       true,
	"ErrCorrupt":         true,
	"ErrNoCheckpoint":    true,
	"ErrFingerprint":     true,
	"ErrChecksum":        true,
	"ErrQuarantined":     true,
	"ErrOverloaded":      true,
	"ErrBadSpec":         true,
	"ErrUnknownJob":      true,
	"ErrUnsupported":     true,
	"ErrPipelineStalled": true,
	"ErrTransient":       true,
	"ErrShortRead":       true,
	"ErrMedia":           true,
	"ErrOOM":             true,
	"ErrDeviceOOM":       true,
	"ErrBufferTooSmall":  true,
}

func runErrSentinel(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				for _, operand := range [2]ast.Expr{n.X, n.Y} {
					if name, ok := sentinelOperand(pass, operand); ok {
						pass.Reportf(n.Pos(),
							"use errors.Is(err, "+name+")",
							"sentinel %s compared with %s; wrapped errors escape identity comparison",
							name, n.Op)
					}
				}
			case *ast.SwitchStmt:
				// switch err { case ErrClosed: } is the same identity
				// comparison in disguise.
				if n.Tag == nil {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if name, ok := sentinelOperand(pass, e); ok {
							pass.Reportf(e.Pos(),
								"use errors.Is(err, "+name+") in an if/else chain",
								"switch-case compares sentinel %s by identity; wrapped errors escape it",
								name)
						}
					}
				}
			}
			return true
		})
	}
}

// sentinelOperand reports whether the expression names one of the
// module's package-level error sentinels.
func sentinelOperand(pass *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !sentinelNames[v.Name()] {
		return "", false
	}
	// Package-level error variables only: a local named ErrClosed is not
	// the contract's sentinel.
	if v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !types.Implements(v.Type(), errorInterface()) && !types.Identical(v.Type(), errorInterface()) {
		return "", false
	}
	return v.Name(), true
}

func errorInterface() *types.Interface {
	return types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
}
