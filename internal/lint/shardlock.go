package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardLock enforces the striped-registry locking contract (DESIGN.md
// "Sharded send path"): in a struct whose sync.Mutex/RWMutex field is
// marked with a //kmlint:guarded comment, every map, slice, or channel
// field declared after the mutex is guarded by it — the convention the
// transport's sendShard, core's generic lane stage, and the endpoint's
// inbound set all declare. Any read or write of a guarded field in code
// where that receiver's mutex is not held is flagged.
//
// The marker is opt-in on purpose: mutex-then-container is also the shape
// of structs protected by other disciplines (Kompics components are
// single-threaded by the scheduler guarantee, not by their mutex), and
// the check's claim — "this container is touched only under this lock" —
// is exactly what the marked structs document and the unmarked ones
// don't.
//
// Held tracking mirrors locksend's linear scan, with one deliberate
// difference: `mu.Lock(); defer mu.Unlock()` keeps the mutex held to the
// end of the function (for locksend the deferred unlock ends the hazard;
// here it is precisely what makes the accesses safe). Two escapes exist:
// functions whose name ends in "Locked" assert the documented caller-
// holds-the-lock convention and are skipped, and constructor-local values
// (composite literals not yet shared) can use //kmlint:ignore like any
// other finding.
var ShardLock = &Analyzer{
	Name: "shardlock",
	Doc:  "map/slice/chan struct fields declared after a mutex are accessed only with that mutex held",
	Run:  runShardLock,
}

func runShardLock(pass *Pass) {
	guarded := guardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var name string
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body, name = fn.Body, fn.Name.Name
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if hasSuffixLocked(name) {
				// "...Locked" functions assert the documented caller-
				// holds-the-lock convention; skip them (and their
				// literals) — the caller's own scan covers the call site.
				return false
			}
			ss := &shardScan{pass: pass, guarded: guarded}
			ss.scanList(body.List, map[string]bool{})
			return true // nested literals get their own scan
		})
	}
}

func hasSuffixLocked(name string) bool {
	return len(name) >= 6 && name[len(name)-6:] == "Locked"
}

// guardedFields maps each guarded field object to the name of the mutex
// field that guards it: within one struct declaration, a sync.Mutex or
// sync.RWMutex field carrying a //kmlint:guarded marker opens a guarded
// region covering every map/slice/chan field after it (a later mutex
// field starts a new region — unmarked, it ends the previous one).
func guardedFields(pass *Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			mu := ""
			for _, f := range st.Fields.List {
				ft := pass.Info.TypeOf(f.Type)
				if isSyncMutex(ft) {
					mu = ""
					if len(f.Names) > 0 && hasGuardedMarker(f) {
						mu = f.Names[len(f.Names)-1].Name
					}
					continue
				}
				if mu == "" || !isContainer(ft) {
					continue
				}
				for _, id := range f.Names {
					if v, ok := pass.Info.Defs[id].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// hasGuardedMarker reports whether the field's doc or trailing comment
// carries the //kmlint:guarded directive.
func hasGuardedMarker(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, "kmlint:guarded") {
				return true
			}
		}
	}
	return false
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func isContainer(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Chan:
		return true
	}
	return false
}

// shardScan walks one function's statements tracking held mutexes (printed
// receiver form, as in locksend) and flags guarded-field accesses outside
// their mutex's critical section.
type shardScan struct {
	pass    *Pass
	guarded map[*types.Var]string
}

func (ss *shardScan) scanList(list []ast.Stmt, held map[string]bool) bool {
	for _, s := range list {
		if ss.scanStmt(s, held) {
			return true
		}
	}
	return false
}

func (ss *shardScan) scanStmt(s ast.Stmt, held map[string]bool) (terminated bool) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		if mu, isLock, _ := lockCall(ss.pass, t.X); mu != "" {
			if isLock {
				held[mu] = true
			} else {
				delete(held, mu)
			}
			return false
		}
		ss.checkExpr(t.X, held)
		return isPanicCall(t.X)

	case *ast.DeferStmt:
		// Unlike locksend, a deferred unlock leaves the mutex held for
		// the remainder of the function — that is the safe pattern here.
		// Other deferred calls run after this scan's critical sections;
		// their bodies (function literals) get their own scan.
		if mu, isLock, _ := lockCall(ss.pass, t.Call); mu == "" || isLock {
			for _, arg := range t.Call.Args {
				ss.checkExpr(arg, held)
			}
		}
		return false

	case *ast.SendStmt:
		ss.checkExpr(t.Chan, held)
		ss.checkExpr(t.Value, held)
		return false

	case *ast.IncDecStmt:
		ss.checkExpr(t.X, held)
		return false

	case *ast.GoStmt:
		// The goroutine body is scanned separately with nothing held;
		// only argument expressions evaluate here.
		for _, arg := range t.Call.Args {
			ss.checkExpr(arg, held)
		}
		return false

	case *ast.AssignStmt:
		for _, lhs := range t.Lhs {
			ss.checkExpr(lhs, held)
		}
		for _, rhs := range t.Rhs {
			ss.checkExpr(rhs, held)
		}
		return false

	case *ast.ReturnStmt:
		for _, r := range t.Results {
			ss.checkExpr(r, held)
		}
		return true

	case *ast.BranchStmt:
		return true

	case *ast.IfStmt:
		if t.Init != nil {
			ss.scanStmt(t.Init, held)
		}
		ss.checkExpr(t.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := ss.scanList(t.Body.List, thenHeld)
		elseHeld := copyHeld(held)
		elseTerm := false
		if t.Else != nil {
			elseTerm = ss.scanStmt(t.Else, elseHeld)
		}
		var arms []map[string]bool
		if !thenTerm {
			arms = append(arms, thenHeld)
		}
		if !elseTerm {
			arms = append(arms, elseHeld)
		}
		if len(arms) == 0 {
			return true
		}
		reconcile(held, arms...)
		return false

	case *ast.BlockStmt:
		return ss.scanList(t.List, held)

	case *ast.LabeledStmt:
		return ss.scanStmt(t.Stmt, held)

	case *ast.ForStmt:
		if t.Init != nil {
			ss.scanStmt(t.Init, held)
		}
		if t.Cond != nil {
			ss.checkExpr(t.Cond, held)
		}
		bodyHeld := copyHeld(held)
		if !ss.scanList(t.Body.List, bodyHeld) {
			reconcile(held, bodyHeld)
		}
		return false

	case *ast.RangeStmt:
		ss.checkExpr(t.X, held)
		bodyHeld := copyHeld(held)
		if !ss.scanList(t.Body.List, bodyHeld) {
			reconcile(held, bodyHeld)
		}
		return false

	case *ast.SwitchStmt:
		if t.Init != nil {
			ss.scanStmt(t.Init, held)
		}
		if t.Tag != nil {
			ss.checkExpr(t.Tag, held)
		}
		ss.scanClauses(t.Body, held)
		return false

	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			ss.scanStmt(t.Init, held)
		}
		ss.scanClauses(t.Body, held)
		return false

	case *ast.SelectStmt:
		ss.scanClauses(t.Body, held)
		return false
	}
	return false
}

func (ss *shardScan) scanClauses(body *ast.BlockStmt, held map[string]bool) {
	var arms []map[string]bool
	for _, c := range body.List {
		armHeld := copyHeld(held)
		var term bool
		switch cl := c.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				ss.checkExpr(e, armHeld)
			}
			term = ss.scanList(cl.Body, armHeld)
		case *ast.CommClause:
			term = ss.scanList(cl.Body, armHeld)
		default:
			continue
		}
		if !term {
			arms = append(arms, armHeld)
		}
	}
	if len(arms) > 0 {
		reconcile(held, arms...)
	}
}

// checkExpr flags guarded-field selectors anywhere in the expression
// whose guarding mutex is not currently held, without descending into
// function literals (their bodies run under their own locking).
func (ss *shardScan) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := ss.pass.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		// Inside a generic type's methods the receiver is an instantiation,
		// whose field objects are copies; the marker was read off the
		// declaration.
		mu, guardedField := ss.guarded[v.Origin()]
		if !guardedField {
			return true
		}
		need := types.ExprString(sel.X) + "." + mu
		if !held[need] {
			ss.report(sel.Pos(), sel.Sel.Name, need)
		}
		return true
	})
}

func (ss *shardScan) report(pos token.Pos, field, mu string) {
	ss.pass.Reportf(pos,
		"access to guarded field %s without holding %s; lock the shard's mutex first",
		field, mu)
}
