package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerRefPair is a leak check over the two acquire/release
// protocols the pipeline's accounting depends on: a featbuf Reservation
// (ReserveCtx) pins refcounts that only Release drops, and a staging
// acquisition (AcquireCtx on a Staging pool) holds a bounded slot that
// only Release returns. A value that neither escapes
// the acquiring function nor reaches a release on every return path is
// a leaked pin: the epoch-end TotalRefs check fires at best, the
// standby list starves and the pipeline stalls at worst.
//
// v2 hosts the check on the shared pair engine (paircheck.go): the
// release may now live in a package-local helper — passing a
// Reservation to a function that releases it counts as the release,
// while passing it to one that merely reads it no longer excuses the
// caller the way v1's escape heuristic did.
var AnalyzerRefPair = &Analyzer{
	Name:          "refpair",
	Doc:           "featbuf Reservations and staging slots must be released on every return path (or escape)",
	SkipTestFiles: true,
	SkipTestPkgs:  true,
	Run:           runRefPair,
}

var refPairSpec = &pairSpec{
	name:      "refpair",
	matchAcq:  refPairAcq,
	isRelease: refPairRelease,
	paramKind: refPairParamKind,
	hint: func(a *acquisition) string {
		if a.kind == "reservation" {
			return "release it on every path (defer " + a.recv + ".Release/PutReservation right after a successful acquire is the simple shape)"
		}
		return "release it on every path (defer " + a.recv + ".Release right after a successful acquire is the simple shape)"
	},
}

func runRefPair(pass *Pass) {
	runPairAnalyzer(pass, refPairSpec)
}

// refPairAcq matches `v, err := X.Reserve*(...)` (result type named
// Reservation) and `v, err := X.Acquire*(...)` on a *Staging receiver.
func refPairAcq(pass *Pass, as *ast.AssignStmt) *acquisition {
	if len(as.Rhs) != 1 || len(as.Lhs) < 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
		return nil
	}
	var kind string
	switch fn.Name() {
	case "Reserve", "ReserveCtx":
		if !typeNamed(sig.Results().At(0).Type(), "Reservation") {
			return nil
		}
		kind = "reservation"
	case "Acquire", "AcquireCtx":
		if !typeNamed(sig.Recv().Type(), "Staging") {
			return nil
		}
		kind = "staging slot"
	default:
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return nil
	}
	return &acquisition{
		varObj: obj,
		errObj: errLHS(pass.Info, as),
		recv:   exprString(sel.X),
		kind:   kind,
		stmt:   as,
	}
}

// refPairRelease matches the acquisition's release: PutReservation(v)
// or <recv>.Release(...) for reservations (Release takes the node list,
// not the reservation, so receiver identity is the link);
// <recv>.Release(v) for staging slots. For parameter obligations (recv
// unknown) a Release call that references the variable is the match.
func refPairRelease(info *types.Info, call *ast.CallExpr, a *acquisition) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return a.kind == "reservation" && fun.Name == "PutReservation" && nodeUsesObj(info, call, a.varObj)
	case *ast.SelectorExpr:
		if fun.Sel.Name != "Release" {
			return false
		}
		if a.recv == "" {
			// Summarizing a helper: the acquiring receiver is unknown, so
			// the variable's involvement is the link.
			return nodeUsesObj(info, call, a.varObj)
		}
		if a.kind == "reservation" {
			return exprString(fun.X) == a.recv
		}
		return exprString(fun.X) == a.recv && nodeUsesObj(info, call, a.varObj)
	}
	return false
}

// refPairParamKind tracks Reservation-typed parameters through helper
// summaries. Staging slots are bare integers — too anonymous to follow
// across a call boundary, so they keep v1's escape-on-pass behavior.
func refPairParamKind(t types.Type) string {
	if typeNamed(t, "Reservation") {
		return "reservation"
	}
	return ""
}

func typeNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// exprString renders a receiver expression for best-effort matching of
// the paired release call ("fb", "e.staging").
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "?"
}
