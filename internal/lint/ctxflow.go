package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxFlow is the other half of the ctx-threading contract that
// ctxbg polices: ctxbg forbids minting a fresh Background inside
// internal code, and ctxflow forbids the quieter failure of receiving a
// perfectly good context and then not using it. The repo's blocking
// APIs come in pairs by convention — ReadAt/ReadAtCtx,
// ReadDirect/ReadDirectCtx, QueueRead/QueueReadCtx, RunEpoch/RunEpochCtx —
// where the bare name is the non-cancellable compat wrapper. A function that
// has a ctx parameter and calls the bare variant anyway cannot be
// cancelled through that call: teardown then relies on side channels
// (Interrupt broadcasts) that not every path arms.
//
// The check is deliberately narrow to stay false-positive-free: it only
// fires when the function receives a context.Context, the call passes
// no context-typed argument, and the callee has a sibling whose name is
// exactly the callee's name + "Ctx" (same package for functions, same
// receiver type for methods) taking a context.Context first. That pair
// existing is the API's own declaration that the bare form is the
// wrong one to call with a ctx in hand.
var AnalyzerCtxFlow = &Analyzer{
	Name:          "ctxflow",
	Doc:           "a received context.Context must flow into every blocking call that has a Ctx-taking variant",
	SkipTestFiles: true,
	SkipTestPkgs:  true,
	OnlyInternal:  true,
	Run:           runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.SourceFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasCtxParam(pass.Info, fd) {
				continue
			}
			checkCtxFlow(pass, fd)
		}
	}
}

func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, obj := range paramObjs(info, fd) {
		if obj != nil && isContextType(obj.Type()) {
			return true
		}
	}
	return false
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && isContextType(tv.Type) {
				return true // some context flows in; derived ones count
			}
		}
		fn := staticCalleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if sib := ctxSibling(pass, fn); sib != nil {
			pass.Reportf(call.Pos(),
				"call "+sib.Name()+" with the function's ctx so cancellation reaches this blocking point",
				"call to %s drops the ctx this function received; the %s variant exists", fn.Name(), sib.Name())
		}
		return true
	})
}

// ctxSibling finds the callee's Ctx-taking twin: a function or method
// named <name>Ctx, colocated with the callee (same package scope, or
// same receiver type for methods), whose first parameter is a
// context.Context. Returns nil when the callee already is the Ctx
// variant or no twin exists.
func ctxSibling(pass *Pass, fn *types.Func) *types.Func {
	name := fn.Name()
	if len(name) >= 3 && name[len(name)-3:] == "Ctx" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		o, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name+"Ctx")
		obj = o
	} else if fn.Pkg() != nil {
		obj = fn.Pkg().Scope().Lookup(name + "Ctx")
	}
	sib, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sibSig, ok := sib.Type().(*types.Signature)
	if !ok || sibSig.Params().Len() == 0 || !isContextType(sibSig.Params().At(0).Type()) {
		return nil
	}
	return sib
}
