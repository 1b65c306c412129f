package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufLeak enforces the pooled-buffer ownership contract from DESIGN.md
// ("Hot path and buffer ownership"): a buffer obtained from bufpool.Get or
// bufpool.GetBuffer must, on every control-flow path, reach one of
//
//   - bufpool.Put / bufpool.PutBuffer,
//   - a return statement (ownership passes to the caller),
//   - a documented ownership-transfer sink (an OnMessage callback, a
//     channel send, storage into a struct/map/variable, or capture by a
//     closure or goroutine that outlives the statement).
//
// Dropping a pooled buffer is memory-safe but silently reverts the wire
// hot path to one allocation per message — TestAllocsPerStreamedMessage's
// bound of 3 heap allocations per streamed message depends on buffers
// cycling. The classic bug this catches is an early error return between
// Get and Put.
//
// The analysis is per-function and syntactic over the statement tree:
// loops are assumed to run at least once, a release anywhere in a branch
// construct counts for the paths that reach it, and passing the buffer to
// an ordinary function is a borrow, not a transfer. Ownership decided by
// pointer aliasing (e.g. "the callee's return value shares dst's backing
// array") is invisible here; such audited cases carry a
// //kmlint:ignore bufleak annotation.
var BufLeak = &Analyzer{
	Name: "bufleak",
	Doc:  "pooled buffers must reach Put, a return, or an ownership-transfer sink on every path",
	Run:  runBufLeak,
}

const bufpoolPkg = "internal/bufpool"

// Transfer sinks are inferred, not listed. Until PR 7 this file carried a
// hand-maintained name table (OnMessage/deliver/submit/storeOwned/release)
// of call targets that take ownership of a buffer argument; the facts
// layer (facts.go) now derives the same property from the callee's own
// body — a parameter is a transfer sink when its value provably reaches
// bufpool.Put, a store, a channel, or another inferred sink — and exports
// it across packages, so Network.receive, pktRing.storeOwned,
// outMsg.release and Endpoint.Send all classify themselves. The one name
// that survives is OnMessage: transport.Config's function-field callback
// whose handoff is documented API, with no body behind the field for
// inference to read.

func runBufLeak(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				bufLeakScanBody(pass, body)
			}
			return true // nested literals are analyzed independently
		})
	}
}

// bufLeakScanBody finds every tracked Get assignment in the function body
// (without descending into nested function literals) and path-checks the
// remainder of its enclosing statement list.
func bufLeakScanBody(pass *Pass, body *ast.BlockStmt) {
	var walkList func(list []ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			if obj, name, pos := trackedGetAssign(pass, s); obj != nil {
				lk := &leakScan{pass: pass, obj: obj, getPos: pos, getName: name}
				st := lk.scanStmts(list[i+1:], pathState{})
				if !st.terminated && !st.released {
					pass.Reportf(pos,
						"buffer from bufpool.%s is dropped when this block ends: missing bufpool.Put, return, or ownership transfer",
						name)
				}
			}
			for _, sub := range subLists(s) {
				walkList(sub)
			}
		}
	}
	walkList(body.List)
}

// subLists returns the statement lists nested directly inside s (not
// crossing into function literals).
func subLists(s ast.Stmt) [][]ast.Stmt {
	switch t := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{t.List}
	case *ast.IfStmt:
		out := [][]ast.Stmt{t.Body.List}
		if t.Else != nil {
			out = append(out, subLists(t.Else)...)
		}
		return out
	case *ast.ForStmt:
		return [][]ast.Stmt{t.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{t.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(t.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(t.Body)
	case *ast.SelectStmt:
		return clauseLists(t.Body)
	case *ast.LabeledStmt:
		return subLists(t.Stmt)
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			out = append(out, cl.Body)
		case *ast.CommClause:
			out = append(out, cl.Body)
		}
	}
	return out
}

// trackedGetAssign matches `v := bufpool.Get(n)` (also GetBuffer, also a
// slicing of the call like Get(n)[:0]) with a single plain identifier on
// the left, and returns the variable's object, the Get function's name and
// the call position.
func trackedGetAssign(pass *Pass, s ast.Stmt) (types.Object, string, token.Pos) {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, "", token.NoPos
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, "", token.NoPos
	}
	call := unwrapToCall(as.Rhs[0])
	if call == nil {
		return nil, "", token.NoPos
	}
	fn := pass.calleeFunc(call)
	name := ""
	switch {
	case funcIs(fn, bufpoolPkg, "Get"):
		name = "Get"
	case funcIs(fn, bufpoolPkg, "GetBuffer"):
		name = "GetBuffer"
	default:
		return nil, "", token.NoPos
	}
	obj := pass.Info.Defs[id]
	if obj == nil {
		obj = pass.Info.Uses[id] // plain `=` to an existing variable
	}
	if obj == nil {
		return nil, "", token.NoPos
	}
	return obj, name, call.Pos()
}

// unwrapToCall strips parens and slice expressions: bufpool.Get(n)[:0] is
// still the Get's buffer.
func unwrapToCall(e ast.Expr) *ast.CallExpr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.CallExpr:
			return t
		default:
			return nil
		}
	}
}

// pathState tracks one buffer along one path.
type pathState struct {
	released   bool // Put/transfer/return-with-value happened
	terminated bool // control left the function (or this scan's scope)
}

// leakScan path-checks one tracked buffer variable.
type leakScan struct {
	pass    *Pass
	obj     types.Object
	getPos  token.Pos
	getName string
}

func (lk *leakScan) getLine() int {
	return lk.pass.Fset.Position(lk.getPos).Line
}

func (lk *leakScan) scanStmts(list []ast.Stmt, st pathState) pathState {
	for _, s := range list {
		st = lk.scanStmt(s, st)
		if st.terminated {
			return st
		}
	}
	return st
}

func (lk *leakScan) scanStmt(s ast.Stmt, st pathState) pathState {
	switch t := s.(type) {
	case *ast.AssignStmt:
		return lk.scanAssign(t, st)

	case *ast.ReturnStmt:
		if lk.usesNode(t) {
			return pathState{released: true, terminated: true}
		}
		if !st.released {
			lk.pass.Reportf(t.Pos(),
				"buffer from bufpool.%s (line %d) can escape here without bufpool.Put, return, or ownership transfer",
				lk.getName, lk.getLine())
		}
		return pathState{released: st.released, terminated: true}

	case *ast.DeferStmt:
		if lk.exprReleases(t.Call) {
			st.released = true
		}
		return st

	case *ast.GoStmt:
		// A goroutine capturing or receiving the buffer owns it from here.
		if lk.exprReleases(t.Call) || lk.usesNode(t.Call) {
			st.released = true
		}
		return st

	case *ast.SendStmt:
		if lk.usesNode(t.Value) {
			st.released = true
		}
		return st

	case *ast.ExprStmt:
		if lk.exprReleases(t.X) {
			st.released = true
		}
		if isPanicCall(t.X) {
			st.terminated = true
		}
		return st

	case *ast.IfStmt:
		if t.Init != nil {
			st = lk.scanStmt(t.Init, st)
		}
		if lk.exprReleases(t.Cond) {
			st.released = true
		}
		thenSt := lk.scanStmts(t.Body.List, st)
		elseSt := st
		if t.Else != nil {
			elseSt = lk.scanStmt(t.Else, st)
		}
		return mergeStates(thenSt, elseSt)

	case *ast.BlockStmt:
		return lk.scanStmts(t.List, st)

	case *ast.LabeledStmt:
		return lk.scanStmt(t.Stmt, st)

	case *ast.ForStmt:
		if t.Init != nil {
			st = lk.scanStmt(t.Init, st)
		}
		if t.Cond != nil && lk.exprReleases(t.Cond) {
			st.released = true
		}
		bodySt := lk.scanStmts(t.Body.List, st)
		// Optimistic: assume the body runs; a release inside counts.
		st.released = st.released || bodySt.released
		if t.Cond == nil && !hasLoopBreak(t.Body) {
			st.terminated = true
		}
		return st

	case *ast.RangeStmt:
		bodySt := lk.scanStmts(t.Body.List, st)
		st.released = st.released || bodySt.released
		return st

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return lk.scanClauses(t, st)

	case *ast.BranchStmt:
		// break/continue/goto: this linear path ends here with its current
		// state; the loop-level merge is optimistic anyway.
		return pathState{released: st.released, terminated: true}

	case *ast.DeclStmt:
		if lk.usesNode(t) {
			// var x = v — aliased into another name; hand off tracking.
			st.released = true
		}
		return st

	default:
		if lk.stmtReleases(s) {
			st.released = true
		}
		return st
	}
}

// scanAssign handles releases via and reassignment of the tracked variable.
func (lk *leakScan) scanAssign(t *ast.AssignStmt, st pathState) pathState {
	rhsUses := false
	for _, rhs := range t.Rhs {
		if lk.exprReleases(rhs) {
			st.released = true
		}
		if lk.usesNode(rhs) {
			rhsUses = true
		}
	}
	// Storage into a field, element or another variable transfers
	// ownership to the destination's owner: x.f = v, m[k] = v, w = v.
	// A blank discard (_ = v) stores nowhere and transfers nothing.
	lhsIsObj := false
	for _, lhs := range t.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if lk.identIsObj(id) {
				lhsIsObj = true
				continue
			}
			if id.Name == "_" {
				continue
			}
		}
		if rhsUses {
			st.released = true
		}
	}
	if lhsIsObj {
		if rhsUses {
			// v = append(v, ...) / v = v[:n]: same buffer, keep tracking.
			return st
		}
		// v = something-else: the original buffer is gone.
		if !st.released {
			lk.pass.Reportf(t.Pos(),
				"buffer from bufpool.%s (line %d) is overwritten before bufpool.Put, return, or ownership transfer",
				lk.getName, lk.getLine())
		}
		// The variable now holds an untracked value; stop following it.
		st.released = true
	}
	return st
}

func (lk *leakScan) scanClauses(s ast.Stmt, st pathState) pathState {
	var body *ast.BlockStmt
	switch t := s.(type) {
	case *ast.SwitchStmt:
		if t.Init != nil {
			st = lk.scanStmt(t.Init, st)
		}
		if t.Tag != nil && lk.exprReleases(t.Tag) {
			st.released = true
		}
		body = t.Body
	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			st = lk.scanStmt(t.Init, st)
		}
		body = t.Body
	case *ast.SelectStmt:
		body = t.Body
	}
	merged := pathState{released: true, terminated: true}
	sawClause, hasDefault := false, false
	for _, c := range body.List {
		var stmts []ast.Stmt
		clauseSt := st
		switch cl := c.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				clauseSt = lk.scanStmt(cl.Comm, clauseSt)
			}
			stmts = cl.Body
		default:
			continue
		}
		sawClause = true
		merged = mergeStates(merged, lk.scanStmts(stmts, clauseSt))
	}
	if !sawClause {
		return st
	}
	if !hasDefault {
		// Without a default the zero-matches path falls through carrying
		// the incoming state (selects always block, but stay conservative
		// there too).
		merged = mergeStates(merged, st)
	}
	return merged
}

// mergeStates joins two path states at a control-flow merge point.
func mergeStates(a, b pathState) pathState {
	switch {
	case a.terminated && b.terminated:
		return pathState{released: a.released && b.released, terminated: true}
	case a.terminated:
		return b
	case b.terminated:
		return a
	default:
		return pathState{released: a.released && b.released}
	}
}

// exprReleases reports whether evaluating e transfers ownership of the
// tracked buffer: a bufpool.Put/PutBuffer call, a documented sink call, a
// composite literal embedding the buffer, or a function literal capturing
// it.
func (lk *leakScan) exprReleases(e ast.Expr) bool {
	released := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if lk.callReleases(t) {
				released = true
			}
		case *ast.CompositeLit:
			for _, elt := range t.Elts {
				if lk.usesNode(elt) {
					released = true
				}
			}
		case *ast.FuncLit:
			if lk.usesNode(t.Body) {
				released = true
			}
			return false // captures counted; don't double-scan the body
		}
		return true
	})
	return released
}

// stmtReleases applies exprReleases to every expression hanging off an
// otherwise-unmodeled statement.
func (lk *leakScan) stmtReleases(s ast.Stmt) bool {
	released := false
	ast.Inspect(s, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && lk.exprReleases(e) {
			released = true
			return false
		}
		return true
	})
	return released
}

// callReleases reports whether one call takes ownership of the buffer:
// bufpool recycling, an inferred transfer parameter, an inferred
// receiver-position sink (newOutMsg(v).release(err) recycles the buffer
// the value was built around even though v is not among the arguments),
// or the documented OnMessage function-field contract.
func (lk *leakScan) callReleases(call *ast.CallExpr) bool {
	var argUses []int
	for i, arg := range call.Args {
		if lk.usesNode(arg) {
			argUses = append(argUses, i)
		}
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn := lk.pass.calleeFunc(call); fn != nil {
		if len(argUses) > 0 &&
			(funcIs(fn, bufpoolPkg, "Put") || funcIs(fn, bufpoolPkg, "PutBuffer")) {
			return true
		}
		ft := lk.pass.Facts.Summary(fn)
		if ft == nil {
			return false // external or unsummarized code borrows
		}
		sig, _ := fn.Type().(*types.Signature)
		for _, i := range argUses {
			pi := i
			if sig != nil && sig.Variadic() && pi >= sig.Params().Len()-1 {
				pi = sig.Params().Len() - 1
			}
			if pi < len(ft.TransferParams) && ft.TransferParams[pi] {
				return true
			}
		}
		return ft.RecvTransfer && sel != nil && lk.usesNode(sel.X)
	}
	if len(argUses) == 0 {
		return false
	}
	// Callee is a function value; only the documented OnMessage contract
	// transfers ownership (transport.Config.OnMessage is a func field —
	// fixtures bind it as OnMessage and onMessage).
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	}
	return isOnMessageSink(name)
}

// isOnMessageSink matches the documented ownership-transfer callback by
// name: transport.Config's OnMessage function field.
func isOnMessageSink(name string) bool {
	return strings.EqualFold(name, "onmessage")
}

// usesNode reports whether any identifier under n resolves to the tracked
// variable.
func (lk *leakScan) usesNode(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && lk.identIsObj(id) {
			found = true
		}
		return !found
	})
	return found
}

func (lk *leakScan) identIsObj(id *ast.Ident) bool {
	if obj := lk.pass.Info.Uses[id]; obj != nil && obj == lk.obj {
		return true
	}
	return lk.pass.Info.Defs[id] == lk.obj
}

// isPanicCall matches a direct panic(...) statement.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// hasLoopBreak reports whether the loop body contains a break exiting this
// loop: an unlabeled break not nested in an inner loop/switch/select, or
// any labeled break (conservatively assumed to target this loop).
func hasLoopBreak(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node, nested bool)
	walk = func(n ast.Node, nested bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if found || m == nil {
				return false
			}
			if m == n {
				return true
			}
			switch t := m.(type) {
			case *ast.BranchStmt:
				if t.Tok == token.BREAK && (!nested || t.Label != nil) {
					found = true
				}
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				walk(m, true)
				return false
			case *ast.FuncLit:
				return false
			}
			return true
		})
	}
	walk(body, false)
	return found
}
