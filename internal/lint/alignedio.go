package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerAlignedIO enforces DESIGN.md §9's memory-alignment contract:
// only storage.AlignedBuf (or staging-pool) memory may reach the
// backend read and submit sinks, because the file backend's O_DIRECT
// descriptor needs the buffer *address* — not just the file offset —
// sector-aligned. A raw `make([]byte, n)` buffer reaching those sinks
// either fails with EINVAL on a real disk or silently degrades every
// read to the buffered path, which is exactly the regression the
// DirectDegraded counter exists to catch.
//
// v2 hosts the check on the interprocedural engine (ipa.go): taint now
// crosses package-local function boundaries in both directions. A
// helper whose []byte result is make-born taints its callers' variables
// (to any call depth, mutual recursion included), and passing a
// make-born buffer to a helper whose parameter reaches a sink is
// reported at the call site — the two laundering shapes the v1
// intra-procedural walk provably missed (see testdata/src/ipa). Flows
// through struct fields populated in other functions remain out of
// scope, keeping false positives near zero. Functions named AlignedBuf
// are sanctioned allocation sources by contract: their alignment logic
// is make-based internally, and blessing the name keeps both
// storage.AlignedBuf's own package and the fixture corpus analyzable.
var AnalyzerAlignedIO = &Analyzer{
	Name:          "alignedio",
	Doc:           "make-born []byte must not reach backend read/submit sinks, across package-local calls; use storage.AlignedBuf",
	SkipTestFiles: true,
	SkipTestPkgs:  true,
	Run:           runAlignedIO,
}

const alignedHint = "allocate with storage.AlignedBuf (or reuse a staging-pool slice) so the O_DIRECT path stays reachable"

func runAlignedIO(pass *Pass) {
	sum := pass.ipa.alignedSummaries(pass.Info)
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tw := newTaintWalk(pass, sum, fd, true)
			tw.walkBody(fd.Body)
		}
	}
}

// alignedSummaries are the fixpoint-computed per-function facts the
// interprocedural taint walk consults at call sites:
//
//   - retTaint: some []byte result of the function may be make-born;
//   - passRet: parameter bits that flow through to a []byte result
//     (identity-ish helpers — `func clamp(b []byte) []byte`);
//   - sinkPar: parameter bits that reach an aligned-I/O sink, directly
//     or through further package-local calls.
type alignedSummaries struct {
	retTaint map[*types.Func]bool
	passRet  map[*types.Func]taintSet
	sinkPar  map[*types.Func]taintSet

	ip *interp
}

// alignedSummaries computes (once per package) the taint summaries by
// iterating per-function summary walks until no summary grows. Growth
// is monotone over finite sets, so the loop terminates; empty-start
// means mutual recursion converges to the least fixpoint.
func (ip *interp) alignedSummaries(info *types.Info) *alignedSummaries {
	if ip.aligned != nil {
		return ip.aligned
	}
	sum := &alignedSummaries{
		retTaint: make(map[*types.Func]bool),
		passRet:  make(map[*types.Func]taintSet),
		sinkPar:  make(map[*types.Func]taintSet),
		ip:       ip,
	}
	ip.aligned = sum
	for changed := true; changed; {
		changed = false
		for _, fd := range ip.decls {
			fn := ip.fnOf[fd]
			tw := newTaintWalkInfo(info, sum, fd)
			tw.walkBody(fd.Body)
			if tw.retOut.hasMake() && !sum.retTaint[fn] {
				sum.retTaint[fn] = true
				changed = true
			}
			if pr := tw.retOut.params(); pr&^sum.passRet[fn] != 0 {
				sum.passRet[fn] |= pr
				changed = true
			}
			if sp := tw.sinkOut.params(); sp&^sum.sinkPar[fn] != 0 {
				sum.sinkPar[fn] |= sp
				changed = true
			}
		}
	}
	return sum
}

// taintWalk tracks, inside one function (closures included — they share
// the locals they capture), which variables currently hold raw
// make-born bytes or parameter-derived bytes. In report mode (pass set)
// make-born taint reaching a sink is a finding; in summary mode (pass
// nil) parameter bits reaching sinks and returns are recorded instead.
type taintWalk struct {
	pass *Pass // nil in summary mode
	info *types.Info
	sum  *alignedSummaries
	fd   *ast.FuncDecl

	// tainted is keyed by taintKey: the defining object's ID for plain
	// identifiers, or the rendered selector path ("r.raw", "req.Buf")
	// for field chains.
	tainted map[string]taintSet
	// bindings resolves calls through function-valued locals: method
	// values (`f := d.ReadAt`) and function values (`g := helper`)
	// assigned in source order before the call.
	bindings map[string]*types.Func

	// summary outputs
	retOut  taintSet
	sinkOut taintSet
}

func newTaintWalk(pass *Pass, sum *alignedSummaries, fd *ast.FuncDecl, report bool) *taintWalk {
	tw := newTaintWalkInfo(pass.Info, sum, fd)
	if report {
		tw.pass = pass
	}
	return tw
}

func newTaintWalkInfo(info *types.Info, sum *alignedSummaries, fd *ast.FuncDecl) *taintWalk {
	tw := &taintWalk{
		info:     info,
		sum:      sum,
		fd:       fd,
		tainted:  make(map[string]taintSet),
		bindings: make(map[string]*types.Func),
	}
	// Seed parameter taint: every []byte parameter carries its bit so a
	// single walk discovers which parameters reach sinks and returns.
	for j, obj := range paramObjs(info, fd) {
		if obj != nil && isByteSlice(obj.Type()) {
			tw.tainted[objKey(obj)] = paramBit(j)
		}
	}
	return tw
}

func (tw *taintWalk) walkBody(body *ast.BlockStmt) {
	// Track FuncLit nesting so only the function's own returns feed the
	// return summary (ast.Inspect pops with a nil callback call).
	litDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			litDepth++
			// Walk the literal's body with the shared taint state, then
			// skip Inspect's own descent so depth bookkeeping stays exact.
			tw.walkBody(n.Body)
			litDepth--
			return false
		case *ast.AssignStmt:
			tw.assign(n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							if t := tw.taintedExpr(vs.Values[i]); t != 0 {
								if key, ok := tw.key(name); ok {
									tw.tainted[key] = t
								}
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			tw.checkSink(n)
		case *ast.ReturnStmt:
			if litDepth == 0 {
				for _, res := range n.Results {
					if tv, ok := tw.info.Types[res]; ok && isByteSlice(tv.Type) {
						tw.retOut |= tw.taintedExpr(res)
					}
				}
			}
		}
		return true
	})
}

func (tw *taintWalk) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 && i == 0 {
			// Multi-value RHS (call, map index): only position 0 can be
			// the byte slice in the shapes we track, and only when the
			// call's first result actually is one.
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				if tv, ok := tw.info.Types[call]; ok {
					if tup, ok := tv.Type.(*types.Tuple); !ok || tup.Len() == 0 || isByteSlice(tup.At(0).Type()) {
						rhs = n.Rhs[0]
					}
				}
			} else {
				rhs = n.Rhs[0]
			}
		}
		key, ok := tw.key(lhs)
		if !ok {
			continue
		}
		// Record method/function-value bindings for later calls through
		// the local.
		if rhs != nil {
			if fn := tw.funcValueOf(rhs); fn != nil {
				tw.bindings[key] = fn
			} else {
				delete(tw.bindings, key)
			}
		}
		if rhs != nil {
			if t := tw.taintedExpr(rhs); t != 0 {
				tw.tainted[key] = t
				continue
			}
		}
		delete(tw.tainted, key)
	}
}

// funcValueOf resolves an expression denoting a function or method
// value (not a call) to its *types.Func.
func (tw *taintWalk) funcValueOf(e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := tw.info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := tw.info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callee resolves the call's target: static callee, or a bound
// function value recorded earlier in the walk.
func (tw *taintWalk) callee(call *ast.CallExpr) *types.Func {
	if fn := staticCalleeFunc(tw.info, call); fn != nil {
		return fn
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := tw.info.Uses[id]; obj != nil {
			return tw.bindings[objKey(obj)]
		}
	}
	return nil
}

// key renders an assignable expression into a taint-map key: the object
// ID for identifiers, a dotted path for selector chains of identifiers.
func (tw *taintWalk) key(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return "", false
		}
		if obj := tw.objectOf(e); obj != nil {
			return objKey(obj), true
		}
		return "", false
	case *ast.SelectorExpr:
		base, ok := tw.key(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

func (tw *taintWalk) objectOf(id *ast.Ident) types.Object {
	if obj := tw.info.ObjectOf(id); obj != nil {
		return obj
	}
	return nil
}

// taintedExpr reports the expression's taint: make-born bytes, a
// reference to a tainted variable or field, a tainted package-local
// call result, or a slice/paren of any of those.
func (tw *taintWalk) taintedExpr(e ast.Expr) taintSet {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if tw.isRawMake(e) {
			return taintMake
		}
		return tw.callTaint(e)
	case *ast.Ident:
		if key, ok := tw.key(e); ok {
			return tw.tainted[key]
		}
	case *ast.SelectorExpr:
		if key, ok := tw.key(e); ok {
			return tw.tainted[key]
		}
	case *ast.SliceExpr:
		return tw.taintedExpr(e.X)
	}
	return 0
}

// callTaint consults the package summaries for a call's result taint: a
// taint-returning callee yields make-born bytes, and a pass-through
// callee propagates its tainted arguments. Functions named AlignedBuf
// are sanctioned sources — clean by contract.
func (tw *taintWalk) callTaint(call *ast.CallExpr) taintSet {
	fn := tw.callee(call)
	if fn == nil || fn.Name() == "AlignedBuf" || !tw.sum.ip.local(fn) {
		return 0
	}
	var t taintSet
	if tw.sum.retTaint[fn] {
		t |= taintMake
	}
	if pr := tw.sum.passRet[fn]; pr != 0 {
		sig, ok := fn.Type().(*types.Signature)
		if ok {
			for i, arg := range call.Args {
				if pj := paramIndexSig(sig, i); pj >= 0 && pr.hasParam(pj) {
					t |= tw.taintedExpr(arg)
				}
			}
		}
	}
	return t
}

// isRawMake matches the taint source: the builtin make with a []byte
// (or named byte-slice) first argument.
func (tw *taintWalk) isRawMake(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if _, ok := tw.info.Uses[id].(*types.Builtin); !ok || id.Name != "make" {
		return false
	}
	tv, ok := tw.info.Types[call.Args[0]]
	if !ok {
		return false
	}
	return isByteSlice(tv.Type)
}

// hit resolves a taint observation at a sink: in report mode make-born
// taint is a finding; in summary mode parameter bits are recorded so
// the enclosing function's callers inherit the obligation.
func (tw *taintWalk) hit(pos token.Pos, t taintSet, format string, args ...any) {
	if t == 0 {
		return
	}
	if tw.pass != nil {
		if t.hasMake() {
			tw.pass.Reportf(pos, alignedHint, format, args...)
		}
		return
	}
	tw.sinkOut |= t
}

// checkSink flags tainted buffers reaching a backend sink. Direct sinks
// are recognized by method shape, not package identity, so the analyzer
// covers storage.Backend, sim.Device, pagecache's device reads, and the
// fixture corpus alike:
//
//   - ReadAt/ReadAtCtx/ReadDirect/ReadDirectCtx returning
//     (time.Duration, error) — the backend read family (io.ReaderAt's
//     (int, error) shape is deliberately excluded);
//   - QueueReadCtx — the uring direct-read staging path
//     (QueueBufferedReadCtx tolerates unaligned memory by contract);
//   - Submit(*Request) — taint arrives via the Buf field of a composite
//     literal or a prior req.Buf assignment;
//   - SubmitBatch([]*Request) — each *Request element of a slice
//     literal is checked like a Submit argument;
//   - RegisterBuffers(...[]byte) — fixed-buffer regions handed to the
//     io_uring backend must be AlignedBuf-derived, or registration is
//     refused (and would pin unaligned pages if it were not);
//   - ReadExtent returning (int, time.Duration, error) —
//     the layout segment-reader path; it widens the extent to a
//     sector-aligned device window but reads through ReadDirect, so the
//     destination buffer's address must still be sector-aligned.
//
// Beyond the direct shapes, a call passing a tainted buffer into a
// package-local function whose parameter reaches a sink (sinkPar
// summary) is itself a sink — the interprocedural half of the check.
func (tw *taintWalk) checkSink(call *ast.CallExpr) {
	fn := tw.callee(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil {
		tw.checkDirectSink(call, fn, sig)
	}
	if sp := tw.sum.sinkPar[fn]; sp != 0 && tw.sum.ip.local(fn) {
		for i, arg := range call.Args {
			if pj := paramIndexSig(sig, i); pj >= 0 && sp.hasParam(pj) {
				tw.hit(arg.Pos(), tw.taintedExpr(arg),
					"raw make([]byte) buffer reaches a backend read/submit sink through the call to %s; its address is not sector-aligned", fn.Name())
			}
		}
	}
}

func (tw *taintWalk) checkDirectSink(call *ast.CallExpr, fn *types.Func, sig *types.Signature) {
	switch fn.Name() {
	case "ReadAt", "ReadAtCtx", "ReadDirect", "ReadDirectCtx":
		if !isDurationErrorResults(sig.Results()) {
			return
		}
		if buf := byteSliceArg(tw.info, sig, call); buf != nil {
			tw.hit(buf.Pos(), tw.taintedExpr(buf),
				"raw make([]byte) buffer reaches backend %s; its address is not sector-aligned", fn.Name())
		}
	case "ReadExtent":
		if !isIntDurationErrorResults(sig.Results()) {
			return
		}
		if buf := byteSliceArg(tw.info, sig, call); buf != nil {
			tw.hit(buf.Pos(), tw.taintedExpr(buf),
				"raw make([]byte) buffer reaches the layout read path via %s; its address is not sector-aligned", fn.Name())
		}
	case "QueueReadCtx":
		if buf := byteSliceArg(tw.info, sig, call); buf != nil {
			tw.hit(buf.Pos(), tw.taintedExpr(buf),
				"raw make([]byte) buffer submitted to the direct read path via %s", fn.Name())
		}
	case "Submit":
		if sig.Params().Len() != 1 || len(call.Args) != 1 {
			return
		}
		tw.checkSubmitRequest(call.Args[0])
	case "SubmitBatch":
		if sig.Params().Len() != 1 || len(call.Args) != 1 {
			return
		}
		tw.checkSubmitBatch(call.Args[0])
	case "RegisterBuffers":
		if !isVariadicByteSlices(sig) || call.Ellipsis.IsValid() {
			return
		}
		for _, arg := range call.Args {
			tw.hit(arg.Pos(), tw.taintedExpr(arg),
				"raw make([]byte) region registered as a fixed buffer via RegisterBuffers; its address is not sector-aligned")
		}
	}
}

// checkSubmitBatch inspects a SubmitBatch argument: each *Request
// element of a slice literal gets the Submit treatment. A batch built
// in a plain variable is out of the walk's scope, matching the
// analyzer's false-positive posture.
func (tw *taintWalk) checkSubmitBatch(arg ast.Expr) {
	cl, ok := ast.Unparen(arg).(*ast.CompositeLit)
	if !ok {
		return
	}
	for _, elt := range cl.Elts {
		tw.checkSubmitRequest(elt)
	}
}

// checkSubmitRequest inspects a Submit argument: a &Request{Buf: ...}
// composite literal with a tainted Buf, or a variable whose .Buf field
// was assigned a tainted value earlier in the function.
func (tw *taintWalk) checkSubmitRequest(arg ast.Expr) {
	e := ast.Unparen(arg)
	if un, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(un.X)
	}
	if cl, ok := e.(*ast.CompositeLit); ok {
		for _, elt := range cl.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Buf" {
				tw.hit(kv.Value.Pos(), tw.taintedExpr(kv.Value),
					"raw make([]byte) buffer submitted as Request.Buf; its address is not sector-aligned")
			}
		}
		return
	}
	if key, ok := tw.key(e); ok {
		tw.hit(arg.Pos(), tw.tainted[key+".Buf"],
			"request's Buf was assigned a raw make([]byte) buffer before Submit")
	}
}

// byteSliceArg returns the call argument bound to the signature's
// []byte parameter (the buffer), tolerating a leading context parameter.
func byteSliceArg(info *types.Info, sig *types.Signature, call *ast.CallExpr) ast.Expr {
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if isByteSlice(params.At(i).Type()) {
			return call.Args[i]
		}
	}
	return nil
}

// isVariadicByteSlices matches RegisterBuffers' shape: one variadic
// ...[]byte parameter.
func isVariadicByteSlices(sig *types.Signature) bool {
	if !sig.Variadic() || sig.Params().Len() != 1 {
		return false
	}
	outer, ok := sig.Params().At(0).Type().Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isByteSlice(outer.Elem())
}

// isIntDurationErrorResults matches the layout extent-read shape
// (int, time.Duration, error).
func isIntDurationErrorResults(res *types.Tuple) bool {
	if res.Len() != 3 {
		return false
	}
	basic, ok := res.At(0).Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.Int {
		return false
	}
	shifted := types.NewTuple(res.At(1), res.At(2))
	return isDurationErrorResults(shifted)
}

// isDurationErrorResults matches the backend read shape
// (time.Duration, error).
func isDurationErrorResults(res *types.Tuple) bool {
	if res.Len() != 2 {
		return false
	}
	named, ok := res.At(0).Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "time" || named.Obj().Name() != "Duration" {
		return false
	}
	return types.Identical(res.At(1).Type(), types.Universe.Lookup("error").Type())
}
