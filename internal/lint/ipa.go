package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the interprocedural core of alignedio: a package-local
// index of top-level function declarations plus the small bit-set
// currency its summary fixpoint trades in. The design is summary-based:
// each function is summarized once per fixpoint round ("parameter 2
// reaches a sink", "the []byte result may be make-born"), and call
// sites consult the summaries instead of inlining callees, so mutual
// recursion converges and analysis stays linear in package size.
// Everything is package-local by construction — cross-package flows
// stay out of scope, keeping false positives near zero while closing
// the one-helper-call laundering hole an intra-procedural walk has.

// taintSet is the dataflow currency: bit 0 marks a value as make-born
// (raw bytes from the builtin make), bit j+1 marks it as derived from
// the enclosing function's parameter j. A summary walk runs with
// parameter bits seeded so one pass computes both the real taint and
// every parameter's reachability; functions with more than 62
// parameters lose precision beyond bit 62 (never flagged, never
// reported — silence over wrong answers).
type taintSet uint64

const taintMake taintSet = 1

func paramBit(j int) taintSet {
	if j < 0 || j >= 62 {
		return 0
	}
	return 1 << (uint(j) + 1)
}

func (t taintSet) hasMake() bool       { return t&taintMake != 0 }
func (t taintSet) params() taintSet    { return t &^ taintMake }
func (t taintSet) hasParam(j int) bool { return t&paramBit(j) != 0 && paramBit(j) != 0 }

// interp is one package's interprocedural view: the function
// declarations eligible for summarization (top-level, non-test, with
// bodies).
type interp struct {
	decls  []*ast.FuncDecl
	fnOf   map[*ast.FuncDecl]*types.Func
	declOf map[*types.Func]*ast.FuncDecl
}

// newInterp indexes the package's top-level function declarations.
// Test files are excluded: alignedio skips them, and a summary derived
// from test-only helpers must not excuse (or implicate) production code.
func newInterp(pass *Pass) *interp {
	ip := &interp{
		fnOf:   make(map[*ast.FuncDecl]*types.Func),
		declOf: make(map[*types.Func]*ast.FuncDecl),
	}
	for _, f := range pass.SourceFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ip.decls = append(ip.decls, fd)
			ip.fnOf[fd] = fn
			ip.declOf[fn] = fd
		}
	}
	return ip
}

// local reports whether fn is a summarized package-local function.
func (ip *interp) local(fn *types.Func) bool {
	_, ok := ip.declOf[fn]
	return ok
}

// objKey renders a types.Object into the string key the taint maps use;
// position disambiguates shadowed names.
func objKey(obj types.Object) string {
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}

// isByteSlice reports whether t's underlying type is []byte (named
// byte-slice types included).
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}

// staticCalleeFunc resolves a call's static callee (plain function or
// method, through parens); calls through function values resolve to nil
// here — the taint walker layers its method-value bindings on top.
func staticCalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// paramIndexSig maps a call argument index to the callee's parameter
// index, folding variadic tails onto the last parameter; -1 when the
// argument has no corresponding parameter.
func paramIndexSig(sig *types.Signature, i int) int {
	n := sig.Params().Len()
	if n == 0 || i < 0 {
		return -1
	}
	if i < n {
		return i
	}
	if sig.Variadic() {
		return n - 1
	}
	return -1
}

// paramObjs returns fd's parameter objects in declaration order
// (receiver excluded), nil entries for blank or unresolvable names.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, fld := range fd.Type.Params.List {
		if len(fld.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies a slot
			continue
		}
		for _, name := range fld.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, info.Defs[name])
		}
	}
	return out
}
