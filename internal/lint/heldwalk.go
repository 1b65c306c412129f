package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// heldWalk is the one held-lock walker behind lockorder's facts, locksend
// and guarded. It walks a function body statement by statement keeping
// the set of mutexes held at each, and calls its check's hooks on
// acquisition, normal exit, deferred calls, channel sends, and every call
// and field selection in the expressions it visits.
//
// The held set is mutated in place along a linear path. Branch constructs
// walk each arm on a copy and merge optimistically: a mutex stays held
// only when every arm that falls through holds it (false negatives over
// false positives). Arms that terminate (return, panic, break, continue,
// goto) take no part in the merge, so the common
// `if cond { mu.Unlock(); return }` early exit does not mark the lock
// released on the fall-through path.
//
// Where the checks walk differently, the difference is a policy field:
// what a deferred Unlock does, whether loops get a second pass and
// `for {}` terminates, and which expression sites are visited. The
// testdata policy.go fixtures pin each check's choices.
type heldWalk struct {
	info *types.Info
	// key names the mutex behind a Lock/Unlock receiver expression.
	key func(recv ast.Expr) string

	// deferReleases makes a deferred Unlock end tracking at once; without
	// it the mutex stays held, marked deferred.
	deferReleases bool
	// loops walks a loop body a second time with its loop-carried locks
	// held, and treats `for {}` without a break as terminating.
	loops bool
	// skip lists the expression sites the check does not visit.
	skip site

	// Hooks; a nil hook is a check not interested in that event.
	onAcquire func(k string, pos token.Pos, held heldSet)
	onExit    func(held heldSet)
	onDefer   func(call *ast.CallExpr) // a deferred call other than Unlock
	onSend    func(s *ast.SendStmt, held heldSet)
	onCall    func(call *ast.CallExpr, held heldSet)
	onField   func(sel *ast.SelectorExpr, held heldSet)

	// ascending is set while re-walking the body of a loop that iterates
	// in ascending index order.
	ascending bool
	comm      bool // walking a select comm statement
}

// site says where in a statement an expression was found. An ordinary
// evaluated expression (condition, right-hand side, result, argument,
// range operand, switch tag) is site 0 and always visited.
type site uint8

const (
	siteLHS      site = 1 << iota // assignment left-hand sides
	siteIncDec                    // x++ and x-- operands
	siteSendChan                  // a send's channel operand
	siteCase                      // case list expressions
	siteDeferArg                  // deferred calls' arguments
	siteComm                      // anything in a select comm statement
)

// heldSrc records how a held mutex was acquired.
type heldSrc struct {
	pos      token.Pos // acquire site, for the ascending-loop exemption
	deferred bool      // its Unlock is deferred: not held at a normal exit
	assumed  bool      // ...Locked entry assumption: the caller holds it
}

type heldSet map[string]heldSrc

// walk walks body from held and calls onExit if control falls off its end.
func (w *heldWalk) walk(body *ast.BlockStmt, held heldSet) {
	if !w.list(body.List, held) && w.onExit != nil {
		w.onExit(held)
	}
}

// list walks statements in order, reporting whether the list terminates.
func (w *heldWalk) list(list []ast.Stmt, held heldSet) bool {
	for _, s := range list {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

func (w *heldWalk) stmt(s ast.Stmt, held heldSet) (terminated bool) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		if k, isLock, ok := w.lockCall(t.X); ok {
			if isLock {
				if w.onAcquire != nil {
					w.onAcquire(k, t.X.Pos(), held)
				}
				held[k] = heldSrc{pos: t.X.Pos()}
			} else {
				delete(held, k)
			}
			return false
		}
		w.expr(t.X, 0, held)
		return isPanicCall(t.X)

	case *ast.DeferStmt:
		if k, isLock, ok := w.lockCall(t.Call); ok && !isLock {
			if w.deferReleases {
				delete(held, k)
			} else if src, have := held[k]; have {
				src.deferred = true
				held[k] = src
			}
			return false
		}
		if w.onDefer != nil {
			w.onDefer(t.Call)
		}
		w.exprs(t.Call.Args, siteDeferArg, held)

	case *ast.GoStmt:
		// The goroutine does not hold this one's locks; only its
		// arguments are evaluated here.
		w.exprs(t.Call.Args, 0, held)

	case *ast.SendStmt:
		if w.onSend != nil {
			w.onSend(t, held)
		}
		w.expr(t.Chan, siteSendChan, held)
		w.expr(t.Value, 0, held)

	case *ast.IncDecStmt:
		w.expr(t.X, siteIncDec, held)

	case *ast.AssignStmt:
		w.exprs(t.Lhs, siteLHS, held)
		w.exprs(t.Rhs, 0, held)

	case *ast.ReturnStmt:
		w.exprs(t.Results, 0, held)
		if w.onExit != nil {
			w.onExit(held)
		}
		return true

	case *ast.BranchStmt:
		// break/continue/goto leave this linear path.
		return true

	case *ast.BlockStmt:
		return w.list(t.List, held)

	case *ast.LabeledStmt:
		return w.stmt(t.Stmt, held)

	case *ast.IfStmt:
		w.stmt(t.Init, held)
		w.expr(t.Cond, 0, held)
		var arms []heldSet
		then := maps.Clone(held)
		if !w.list(t.Body.List, then) {
			arms = append(arms, then)
		}
		els := maps.Clone(held)
		if !w.stmt(t.Else, els) {
			arms = append(arms, els)
		}
		if len(arms) == 0 {
			return true
		}
		held.merge(arms)

	case *ast.ForStmt:
		w.stmt(t.Init, held)
		w.expr(t.Cond, 0, held)
		inc, _ := t.Post.(*ast.IncDecStmt)
		w.loop(t.Body, held, inc != nil && inc.Tok == token.INC)
		// `for {}` without a break never falls through: every exit is a
		// return inside the body (the worker-loop shape).
		return w.loops && t.Cond == nil && !hasLoopBreak(t.Body)

	case *ast.RangeStmt:
		w.expr(t.X, 0, held)
		w.loop(t.Body, held, w.loops && rangesByIndex(w.info, t))

	case *ast.SwitchStmt:
		w.stmt(t.Init, held)
		w.expr(t.Tag, 0, held)
		w.clauses(t.Body, held)

	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, held)
		w.clauses(t.Body, held)

	case *ast.SelectStmt:
		w.clauses(t.Body, held)
	}
	return false
}

// loop walks a loop body on a copy of held and merges it back. Under the
// loops policy, a body that leaves locks held which were not held on
// entry (a lock-all sweep) is walked once more with those loop-carried
// locks held, so acquisitions across iterations are seen; while that
// second pass runs over an ascending loop, ascending is set.
func (w *heldWalk) loop(body *ast.BlockStmt, held heldSet, ascending bool) {
	inner := maps.Clone(held)
	if w.list(body.List, inner) {
		return
	}
	if w.loops {
		for k := range inner {
			if _, ok := held[k]; !ok {
				outer := w.ascending
				w.ascending = outer || ascending
				w.list(body.List, maps.Clone(inner))
				w.ascending = outer
				break
			}
		}
	}
	held.merge([]heldSet{inner})
}

// rangesByIndex reports whether the range iterates a slice or array, in
// ascending index order by the language spec. Map order is deliberately
// unspecified.
func rangesByIndex(info *types.Info, t *ast.RangeStmt) bool {
	typ := info.TypeOf(t.X)
	if typ == nil {
		return false
	}
	u := typ.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	switch u.(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

// clauses walks each case or comm clause on a copy of held and merges the
// arms that fall through.
func (w *heldWalk) clauses(body *ast.BlockStmt, held heldSet) {
	var arms []heldSet
	for _, c := range body.List {
		arm := maps.Clone(held)
		var stmts []ast.Stmt
		switch cl := c.(type) {
		case *ast.CaseClause:
			w.exprs(cl.List, siteCase, arm)
			stmts = cl.Body
		case *ast.CommClause:
			w.comm = true
			w.stmt(cl.Comm, arm)
			w.comm = false
			stmts = cl.Body
		}
		if !w.list(stmts, arm) {
			arms = append(arms, arm)
		}
	}
	if len(arms) > 0 {
		held.merge(arms)
	}
}

func (w *heldWalk) exprs(es []ast.Expr, at site, held heldSet) {
	for _, e := range es {
		w.expr(e, at, held)
	}
}

// expr calls onCall for every call and onField for every selector in e,
// unless the check skips a site in at. Function literals are not entered:
// their bodies run later and are walked on their own.
func (w *heldWalk) expr(e ast.Expr, at site, held heldSet) {
	if w.comm {
		at |= siteComm
	}
	if e == nil || w.skip&at != 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if w.onCall != nil {
				w.onCall(t, held)
			}
		case *ast.SelectorExpr:
			if w.onField != nil {
				w.onField(t, held)
			}
		}
		return true
	})
}

// lockCall matches mu.Lock/RLock (isLock) and mu.Unlock/RUnlock on sync
// mutexes and names the receiver with key. RLock shares its mutex's key:
// no check tells readers from writers.
func (w *heldWalk) lockCall(e ast.Expr) (k string, isLock, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := calleeFuncOf(w.info, call)
	switch {
	case methodIs(fn, "sync", "Mutex", "Lock"),
		methodIs(fn, "sync", "RWMutex", "Lock"),
		methodIs(fn, "sync", "RWMutex", "RLock"):
		isLock = true
	case methodIs(fn, "sync", "Mutex", "Unlock"),
		methodIs(fn, "sync", "RWMutex", "Unlock"),
		methodIs(fn, "sync", "RWMutex", "RUnlock"):
	default:
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return w.key(sel.X), isLock, true
}

// merge sets h to the arms' common held set: a mutex stays, or becomes,
// held only when every arm holds it. One already held keeps its record,
// one acquired in every arm takes the first arm's, and a deferred-unlock
// mark in any arm survives.
func (h heldSet) merge(arms []heldSet) {
	for k := range h {
		if !allHold(arms, k) {
			delete(h, k)
		}
	}
	for k, src := range arms[0] {
		if !allHold(arms[1:], k) {
			continue
		}
		if cur, ok := h[k]; ok {
			src = cur
		}
		for _, arm := range arms {
			src.deferred = src.deferred || arm[k].deferred
		}
		h[k] = src
	}
}

func allHold(arms []heldSet, k string) bool {
	for _, arm := range arms {
		if _, ok := arm[k]; !ok {
			return false
		}
	}
	return true
}

// eachBody calls fn on every function body in files, declarations and
// literals alike (each literal on its own), with the declared name, or ""
// for a literal. fn returns whether to go on into the body's literals.
func eachBody(files []*ast.File, fn func(name string, body *ast.BlockStmt) bool) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch f := n.(type) {
			case *ast.FuncDecl:
				if f.Body != nil {
					return fn(f.Name.Name, f.Body)
				}
			case *ast.FuncLit:
				return fn("", f.Body)
			}
			return true
		})
	}
}

func hasSuffixLocked(name string) bool {
	return len(name) >= 6 && name[len(name)-6:] == "Locked"
}
