package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lock-fact extraction: the per-function walk that feeds the lockorder
// analyzer. It is the held-lock walk (heldwalk.go) keyed by mutex
// *classes* (declaration identity, not instance spelling); it records an
// edge whenever a class is acquired while another is held, follows calls
// through the facts store (a callee's Acquires induce edges under the
// caller's held set; its HeldAtExit extends the caller's held set — that
// is how LockB()/UnlockB() helper pairs and cross-package cycles become
// visible), and honours the ...Locked caller-holds convention by seeding
// the held set with the receiver's mutex-field classes.
//
// Same-class re-acquisition is the stripe hazard: locking shard[j].mu
// while shard[i].mu is held deadlocks against a concurrent sweep in the
// opposite order. The one provably safe shape is the lock-all loop that
// walks a slice in ascending index order — the same site re-acquiring
// its class across iterations of a slice/array loop (or an i++ counter
// loop) is exempt; a map range is not, because map iteration order is
// deliberately unspecified.

type lockFactScan struct {
	f    *Facts
	rec  *funcRec
	fact *FuncFact
	info *types.Info
	w    *heldWalk
}

// lockFacts fills nf's Acquires/HeldAtExit/Edges from rec's body. The
// walk gives loops their second pass, keeps a class with a deferred
// unlock held (but out of HeldAtExit), and skips assignment left-hand
// sides.
func (f *Facts) lockFacts(rec *funcRec, nf *FuncFact) {
	lf := &lockFactScan{f: f, rec: rec, fact: nf, info: rec.pkg.Info}
	lf.w = &heldWalk{
		info:      lf.info,
		key:       func(e ast.Expr) string { return string(lf.classify(e)) },
		loops:     true,
		skip:      siteLHS,
		onAcquire: lf.acquire,
		onExit:    lf.recordExit,
		onDefer:   lf.deferred,
		onCall:    lf.call,
	}
	held := heldSet{}
	for _, cls := range lf.assumedHeld() {
		held[string(cls)] = heldSrc{assumed: true}
	}
	lf.w.walk(rec.decl.Body, held)
}

// assumedHeld returns the mutex-field classes of the receiver struct for
// ...Locked methods: the documented caller-holds convention (guarded
// skips their bodies; here their call sites resolve against the caller's
// held set, so the classes are assumed, not acquired).
func (lf *lockFactScan) assumedHeld() []MutexClass {
	if !hasSuffixLocked(lf.rec.fn.Name()) {
		return nil
	}
	sig, _ := lf.rec.fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	named, ok := derefNamed(sig.Recv().Type())
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []MutexClass
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if isSyncMutex(fld.Type()) {
			out = append(out, fieldClass(named, fld))
		}
	}
	return out
}

func fieldClass(owner *types.Named, fld *types.Var) MutexClass {
	return MutexClass(pkgOf(fld) + "." + owner.Obj().Name() + "." + fld.Name())
}

// pkgOf returns the import path of obj's package, or "" for universe
// objects.
func pkgOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// classify resolves the mutex class behind the receiver expression of a
// sync lock/unlock call ("c.mu", "mu", "shards[i].mu", an embedded
// promotion).
func (lf *lockFactScan) classify(e ast.Expr) MutexClass {
	e = ast.Unparen(e)
	switch t := e.(type) {
	case *ast.SelectorExpr:
		if v, ok := lf.info.Uses[t.Sel].(*types.Var); ok {
			if v.IsField() {
				owner := namedTypeName(lf.info.TypeOf(t.X))
				if owner == "" {
					owner = "<anon>"
				}
				return MutexClass(pkgOf(v) + "." + owner + "." + v.Name())
			}
			return MutexClass(pkgOf(v) + "." + v.Name())
		}
	case *ast.Ident:
		if v, ok := lf.info.Uses[t].(*types.Var); ok {
			if !isSyncMutex(v.Type()) {
				// Embedded promotion: c.Lock() on a struct embedding the
				// mutex — the class belongs to the embedding type.
				if named, ok := derefNamed(v.Type()); ok {
					return MutexClass(pkgOf(named.Obj()) + "." + named.Obj().Name() + ".Mutex")
				}
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return MutexClass(v.Pkg().Path() + "." + v.Name())
			}
			return MutexClass(pkgOf(v) + "." + lf.rec.fn.Name() + "." + v.Name())
		}
	case *ast.IndexExpr:
		return lf.classify(t.X) // mus[i]: the array/slice is the domain
	}
	return MutexClass(pkgOf(lf.rec.fn) + ".expr:" + types.ExprString(e))
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func (lf *lockFactScan) addEdge(from, to MutexClass, pos token.Pos) {
	for _, e := range lf.fact.Edges {
		if e.From == from && e.To == to {
			return
		}
	}
	lf.fact.Edges = append(lf.fact.Edges, LockEdge{From: from, To: to, Pos: pos})
}

// acquire records locking the class k at pos against the held set.
func (lf *lockFactScan) acquire(k string, pos token.Pos, held heldSet) {
	cls := MutexClass(k)
	lf.fact.Acquires[cls] = true
	for h, src := range held {
		if h != k {
			lf.addEdge(MutexClass(h), cls, pos)
		} else if !lf.w.ascending || src.pos != pos {
			// Ascending-sweep exemption: the same site re-acquiring its
			// class on the next iteration of an ordered loop.
			lf.addEdge(cls, cls, pos)
		}
	}
}

// recordExit folds the held set into HeldAtExit at a normal exit.
func (lf *lockFactScan) recordExit(held heldSet) {
	for k, src := range held {
		if !src.deferred && !src.assumed {
			lf.fact.HeldAtExit[MutexClass(k)] = true
		}
	}
}

// call folds a summarized callee into the walk: edges from every held
// class to everything it acquires, and its HeldAtExit extends the held
// set.
func (lf *lockFactScan) call(call *ast.CallExpr, held heldSet) {
	ft := lf.f.Summary(calleeFuncOf(lf.info, call))
	if ft == nil {
		return
	}
	for b := range ft.Acquires {
		lf.fact.Acquires[b] = true
		for h := range held {
			lf.addEdge(MutexClass(h), b, call.Pos())
		}
	}
	for c := range ft.HeldAtExit {
		if _, ok := held[string(c)]; !ok {
			held[string(c)] = heldSrc{pos: call.Pos()}
		}
	}
}

// deferred counts a deferred call's own acquisitions as Acquires without
// edges: they happen at exit, with a held set the walk cannot know.
func (lf *lockFactScan) deferred(call *ast.CallExpr) {
	if ft := lf.f.Summary(calleeFuncOf(lf.info, call)); ft != nil {
		for b := range ft.Acquires {
			lf.fact.Acquires[b] = true
		}
	}
}
