package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Guarded enforces the guarded-registry locking contract (DESIGN.md
// "The outgoing channel registry"): in a struct whose sync.Mutex/RWMutex
// field is marked with a //kmlint:guarded comment, every map, slice, or
// channel field declared after the mutex is guarded by it — the
// convention the transport's outgoing registry, core's generic lane
// stage, and the endpoint's inbound set all declare. Any read or write of
// a guarded field in code where that receiver's mutex is not held is
// flagged.
//
// The marker is opt-in on purpose: mutex-then-container is also the shape
// of structs protected by other disciplines (Kompics components are
// single-threaded by the scheduler guarantee, not by their mutex), and
// the check's claim — "this container is touched only under this lock" —
// is exactly what the marked structs document and the unmarked ones
// don't.
//
// The check is a field-access hook over the held-lock walk (heldwalk.go),
// keyed by the receiver's printed form as in locksend, with one deliberate
// difference: `mu.Lock(); defer mu.Unlock()` keeps the mutex held to the
// end of the function (for locksend the deferred unlock ends the hazard;
// here it is precisely what makes the accesses safe). Select comm
// statements are not visited. Two escapes exist: functions whose name
// ends in "Locked" assert the documented caller-holds-the-lock convention
// and are skipped, and constructor-local values (composite literals not
// yet shared) can use //kmlint:ignore like any other finding.
var Guarded = &Analyzer{
	Name: "guarded",
	Doc:  "map/slice/chan struct fields declared after a //kmlint:guarded mutex are accessed only with that mutex held",
	Run:  runGuarded,
}

func runGuarded(pass *Pass) {
	guarded := guardedFields(pass)
	if len(guarded) == 0 {
		return
	}
	w := &heldWalk{
		info: pass.Info,
		key:  types.ExprString,
		skip: siteComm,
		onField: func(sel *ast.SelectorExpr, held heldSet) {
			v, ok := pass.Info.Uses[sel.Sel].(*types.Var)
			if !ok {
				return
			}
			// Inside a generic type's methods the receiver is an
			// instantiation, whose field objects are copies; the marker
			// was read off the declaration.
			mu, ok := guarded[v.Origin()]
			if !ok {
				return
			}
			need := types.ExprString(sel.X) + "." + mu
			if _, ok := held[need]; !ok {
				pass.Reportf(sel.Pos(),
					"access to guarded field %s without holding %s; lock the shard's mutex first",
					sel.Sel.Name, need)
			}
		},
	}
	eachBody(pass.Files, func(name string, body *ast.BlockStmt) bool {
		if hasSuffixLocked(name) {
			// The caller's own walk covers the call site.
			return false
		}
		w.walk(body, heldSet{})
		return true
	})
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
