package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerExtentBounds polices the seam between the layout addresser
// and the buffers its offsets index: an offset that came out of
// Addresser.Extents or NodeOffset is data derived from an on-disk index
// (.pidx), and the integrity layer's whole point is that disk bytes can
// be wrong — a corrupt or stale index yields extents past the end of a
// staging slot, and slicing with them panics the extractor (best case)
// or silently reads a neighbor tenant's slot bytes (worst case, in the
// shared serve pool). So every slice or index expression whose offsets
// derive from extent geometry must be preceded, in the same function,
// by a comparison that mentions the offset — the shape of a bounds
// check. The analyzer is syntactic about the guard on purpose: it
// demands evidence a check exists, not a proof of its correctness.
//
// Tracked offset sources: results of calls to methods named Extents or
// NodeOffset, and reads of the Off/FeatOff/Len fields of an
// Extent-named type (the addresser's wire struct). A comparison
// anywhere earlier in the function mentioning the same variable or
// field path sanctions it.
var AnalyzerExtentBounds = &Analyzer{
	Name:      "extentbounds",
	Doc:       "offsets from layout Extents/NodeOffset must be bounds-checked before slicing a buffer",
	SkipTests: true,
	Run:       runExtentBounds,
}

func runExtentBounds(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkExtentBounds(pass, fd)
		}
	}
}

type extentScan struct {
	pass *Pass
	// offsetObjs are variables assigned from NodeOffset/Extents results.
	offsetObjs map[types.Object]bool
	// sanctioned are offset paths (objKey or rendered field path) that a
	// comparison has mentioned, in source order.
	sanctioned map[string]bool
}

func checkExtentBounds(pass *Pass, fd *ast.FuncDecl) {
	es := &extentScan{
		pass:       pass,
		offsetObjs: make(map[types.Object]bool),
		sanctioned: make(map[string]bool),
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			es.trackAssign(n)
		case *ast.BinaryExpr:
			if isComparison(n.Op) {
				for _, p := range es.pathsIn(n) {
					es.sanctioned[p] = true
				}
			}
		case *ast.SliceExpr:
			es.checkIndexing(n, n.Low, n.High, n.Max)
		case *ast.IndexExpr:
			es.checkIndexing(n, n.Index)
		}
		return true
	})
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// trackAssign marks variables assigned from an extent-geometry source.
// Reassignment from anything else clears the mark (a clamped copy is a
// new value).
func (es *extentScan) trackAssign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := es.pass.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 && i == 0 {
			rhs = n.Rhs[0]
		}
		if rhs != nil && es.isOffsetSource(rhs) {
			es.offsetObjs[obj] = true
			delete(es.sanctioned, objKey(obj))
		} else {
			delete(es.offsetObjs, obj)
		}
	}
}

// isOffsetSource matches calls to methods named Extents or NodeOffset
// (any receiver — the Addresser seam is an interface, and fixtures
// replicate the shape) and arithmetic over such calls.
func (es *extentScan) isOffsetSource(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := staticCalleeFunc(es.pass.Info, e)
		if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
			return false
		}
		return fn.Name() == "Extents" || fn.Name() == "NodeOffset"
	case *ast.BinaryExpr:
		return es.isOffsetSource(e.X) || es.isOffsetSource(e.Y)
	}
	return false
}

// pathsIn collects every extent-offset path in the subtree: tracked
// variables by object key, and Off/FeatOff/Len field reads on an
// Extent-named base by rendered path.
func (es *extentScan) pathsIn(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.Ident:
			if obj := es.pass.Info.Uses[m]; obj != nil && es.offsetObjs[obj] {
				out = append(out, objKey(obj))
			}
		case *ast.SelectorExpr:
			if es.isExtentField(m) {
				out = append(out, exprString(m))
				return false
			}
		}
		return true
	})
	return out
}

func (es *extentScan) isExtentField(sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Off", "FeatOff", "Len":
	default:
		return false
	}
	tv, ok := es.pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	return typeNamed(tv.Type, "Extent")
}

// checkIndexing flags indexing expressions whose offsets include an
// unsanctioned extent path. One report per expression.
func (es *extentScan) checkIndexing(at ast.Node, idxs ...ast.Expr) {
	for _, idx := range idxs {
		if idx == nil {
			continue
		}
		for _, p := range es.pathsIn(idx) {
			if !es.sanctioned[p] {
				es.pass.Reportf(at.Pos(),
					"compare the extent's offset+length against len() of the buffer first (a corrupt .pidx must fail the read, not panic the extractor)",
					"offset derived from layout Extents/NodeOffset is used to slice a buffer without a prior bounds check")
				return
			}
		}
	}
}

func typeNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// exprString renders a selector chain of identifiers ("e.Off",
// "r.ext.Len") as the path key a comparison sanctions.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "?"
}
