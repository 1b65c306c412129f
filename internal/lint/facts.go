package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The facts layer is kmlint's interprocedural backbone. Every analyzer up
// to PR 6 reasoned about one function at a time, which made the exact bug
// class the sharded registries invite — a lock taken here, a second lock
// taken in a callee, a cycle that only closes across a package boundary —
// structurally invisible. ComputeFacts builds a module-wide static call
// graph over every package the loader has seen (the packages under
// analysis plus the module-internal dependencies Import type-checked for
// them), condenses it with Tarjan's SCC algorithm, and computes a
// per-function summary bottom-up so each function's fact is available to
// its callers. Inside a strongly connected component (mutual recursion)
// the members iterate to a fixpoint; all facts are monotone unions, so
// the fixpoint exists and is reached in a handful of rounds.
//
// Three fact families are computed:
//
//   - Ownership transfer: which parameters (and receivers) a function
//     consumes under the pooled-buffer contract. This replaces bufleak's
//     hand-listed sink table (deliver/submit/storeOwned/release): a
//     parameter is a transfer sink because its value provably reaches
//     bufpool.Put, escapes into a store, channel, or closure, or is
//     passed on to another inferred sink — not because of its name.
//   - Locks: which mutex classes a function acquires (transitively),
//     which it leaves held on exit, and every "B acquired while A held"
//     edge, resolved through ...Locked caller-holds helpers. lockorder
//     builds the module's lock graph from these.
//   - Goroutine lifecycle: whether running the function signals a
//     sync.WaitGroup.Done or receives from a channel (quit-channel /
//     Close select / range-over-channel). gorolife uses these to tie
//     every `go` statement to a shutdown path.

// MutexClass identifies a mutex by declaration site rather than instance:
// "pkgpath.Type.field" for a struct field, "pkgpath.var" for a
// package-level mutex, "pkgpath.func.var" for a local. All stripes of a
// striped registry share one class — which is what lock-order reasoning
// wants, since the stripes are interchangeable members of one lock domain
// and nesting two of them is exactly the hazard.
type MutexClass string

// short renders the class without the module path prefix for messages.
func (c MutexClass) short() string {
	s := string(c)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// LockEdge records that To was acquired at Pos while From was held.
type LockEdge struct {
	From, To MutexClass
	Pos      token.Pos
}

// FuncFact is one function's interprocedural summary.
type FuncFact struct {
	// TransferParams[i] reports that the i-th parameter's value is
	// consumed by the function (pooled-buffer ownership transfer).
	TransferParams []bool
	// RecvTransfer reports the same for the method receiver —
	// outMsg.release recycles the payload its receiver was built around.
	RecvTransfer bool

	// Acquires holds every mutex class locked by the function or any
	// callee reachable from it on the same goroutine.
	Acquires map[MutexClass]bool
	// HeldAtExit holds the classes still locked when the function
	// returns normally (LockB-style helpers). Deferred unlocks and
	// ...Locked caller-holds assumptions are excluded.
	HeldAtExit map[MutexClass]bool
	// Edges are the "To acquired while From held" pairs observed in the
	// function body, including those induced by calls into summarized
	// callees. From == To marks same-class (stripe) nesting.
	Edges []LockEdge

	// WGDone: running the function (not a goroutine it spawns) calls
	// sync.WaitGroup.Done, directly or transitively.
	WGDone bool
	// QuitRecv: running the function receives from a channel — a
	// quit-channel select, <-done, or range over a channel.
	QuitRecv bool
}

func newFuncFact(fn *types.Func) *FuncFact {
	n := 0
	if sig, ok := fn.Type().(*types.Signature); ok {
		n = sig.Params().Len()
	}
	return &FuncFact{
		TransferParams: make([]bool, n),
		Acquires:       map[MutexClass]bool{},
		HeldAtExit:     map[MutexClass]bool{},
	}
}

// funcRec is one node of the call graph.
type funcRec struct {
	fn       *types.Func
	decl     *ast.FuncDecl
	pkg      *Package
	fact     *FuncFact
	callees  []*funcRec
	testFile bool

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
}

// Facts is the store of per-function summaries, keyed by the
// type-checker's *types.Func objects. A source function type-checked in
// two instances (as a dependency and again as the package under analysis,
// with its test files) has two keys carrying equal summaries; lookups are
// by whichever instance the querying package's Info resolves to.
type Facts struct {
	fset  *token.FileSet
	fns   map[*types.Func]*funcRec
	order []*funcRec
}

// Summary returns fn's fact, or nil when fn is unknown (external code,
// interface methods, nil). Safe on a nil Facts.
func (f *Facts) Summary(fn *types.Func) *FuncFact {
	if rec := f.lookup(fn); rec != nil {
		return rec.fact
	}
	return nil
}

// lookup resolves fn to its record. Instantiated generic methods
// (WorkPool[*codecJob].worker at a call site) resolve through Origin to
// the generic declaration the record was built from.
func (f *Facts) lookup(fn *types.Func) *funcRec {
	if f == nil || fn == nil {
		return nil
	}
	if rec := f.fns[fn]; rec != nil {
		return rec
	}
	return f.fns[fn.Origin()]
}

// ComputeFacts builds the call graph over universe and computes every
// function's summary bottom-up over its SCC condensation. Ordering is
// deterministic: records sort by source position before graph
// construction, and SCCs are emitted callees-first.
func ComputeFacts(fset *token.FileSet, universe []*Package) *Facts {
	f := &Facts{fset: fset, fns: map[*types.Func]*funcRec{}}
	for _, pkg := range universe {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			test := strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, dup := f.fns[fn]; dup {
					continue
				}
				rec := &funcRec{fn: fn, decl: fd, pkg: pkg, fact: newFuncFact(fn), testFile: test}
				f.fns[fn] = rec
				f.order = append(f.order, rec)
			}
		}
	}
	sort.SliceStable(f.order, func(i, j int) bool {
		a := f.fset.Position(f.order[i].decl.Pos())
		b := f.fset.Position(f.order[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, rec := range f.order {
		rec.callees = f.collectCallees(rec)
	}
	for _, scc := range f.sccs() {
		// Monotone union facts: iterate members to a fixpoint. Singleton
		// SCCs converge on the first pass; mutual recursion in a few.
		for range [8]struct{}{} {
			changed := false
			for _, rec := range scc {
				if f.computeFact(rec) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return f
}

// calleeFuncOf resolves the statically-known function or method a call
// invokes within info, or nil for function values, conversions and
// builtins. Pass.calleeFunc is the per-pass wrapper.
func calleeFuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// collectCallees gathers the in-universe functions rec calls on its own
// goroutine: nested function literals are skipped (they run when invoked,
// not here) and so are the direct targets of `go` statements (they run on
// the spawned goroutine — their locks and Done calls are not this
// function's).
func (f *Facts) collectCallees(rec *funcRec) []*funcRec {
	var out []*funcRec
	seen := map[*funcRec]bool{}
	goTargets := map[*ast.CallExpr]bool{}
	ast.Inspect(rec.decl.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goTargets[t.Call] = true
		case *ast.CallExpr:
			if goTargets[t] {
				return true
			}
			if callee := f.lookup(calleeFuncOf(rec.pkg.Info, t)); callee != nil && !seen[callee] {
				seen[callee] = true
				out = append(out, callee)
			}
		}
		return true
	})
	return out
}

// sccs runs Tarjan's algorithm over the call graph and returns the
// strongly connected components in callees-before-callers order (Tarjan
// pops a component only after everything reachable from it).
func (f *Facts) sccs() [][]*funcRec {
	var (
		out   [][]*funcRec
		stack []*funcRec
		next  = 1
	)
	var strongconnect func(v *funcRec)
	strongconnect = func(v *funcRec) {
		v.index, v.lowlink = next, next
		next++
		stack = append(stack, v)
		v.onStack = true
		for _, w := range v.callees {
			if w.index == 0 {
				strongconnect(w)
				v.lowlink = min(v.lowlink, w.lowlink)
			} else if w.onStack {
				v.lowlink = min(v.lowlink, w.index)
			}
		}
		if v.lowlink == v.index {
			var scc []*funcRec
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, rec := range f.order {
		if rec.index == 0 {
			strongconnect(rec)
		}
	}
	return out
}

// computeFact (re)derives rec's summary from its body and the current
// facts of its callees, reporting whether anything changed.
func (f *Facts) computeFact(rec *funcRec) bool {
	nf := newFuncFact(rec.fn)

	sig, _ := rec.fn.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			nf.TransferParams[i] = f.taintTransfers(rec, sig.Params().At(i))
		}
		if recv := sig.Recv(); recv != nil {
			nf.RecvTransfer = f.taintTransfers(rec, recv)
		}
	}

	// Lock facts come from non-test code only: tests lock freely across
	// domains to set up scenarios, and the module invariant is about
	// production goroutines.
	if !rec.testFile {
		f.lockFacts(rec, nf)
	}

	nf.WGDone, nf.QuitRecv = f.goroFacts(rec)

	changed := !factEqual(rec.fact, nf)
	rec.fact = nf
	return changed
}

func factEqual(a, b *FuncFact) bool {
	if len(a.TransferParams) != len(b.TransferParams) ||
		a.RecvTransfer != b.RecvTransfer ||
		a.WGDone != b.WGDone || a.QuitRecv != b.QuitRecv ||
		len(a.Acquires) != len(b.Acquires) ||
		len(a.HeldAtExit) != len(b.HeldAtExit) ||
		len(a.Edges) != len(b.Edges) {
		return false
	}
	for i, v := range a.TransferParams {
		if b.TransferParams[i] != v {
			return false
		}
	}
	for c := range a.Acquires {
		if !b.Acquires[c] {
			return false
		}
	}
	for c := range a.HeldAtExit {
		if !b.HeldAtExit[c] {
			return false
		}
	}
	for i, e := range a.Edges {
		if b.Edges[i] != e {
			return false
		}
	}
	return true
}

// LockEdges returns every lock-acquisition edge in the universe in
// deterministic order, deduplicated by (From, To, file position) — the
// same source function summarized under two type-check instances
// contributes its edges once.
func (f *Facts) LockEdges() []LockEdge {
	if f == nil {
		return nil
	}
	type key struct {
		from, to MutexClass
		file     string
		line     int
		col      int
	}
	seen := map[key]bool{}
	var out []LockEdge
	for _, rec := range f.order {
		for _, e := range rec.fact.Edges {
			p := f.fset.Position(e.Pos)
			k := key{e.From, e.To, p.Filename, p.Line, p.Column}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := f.fset.Position(out[i].Pos), f.fset.Position(out[j].Pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// --- ownership-transfer inference --------------------------------------------

// taintTransfers reports whether seed's value escapes rec on some path:
// into bufpool.Put/PutBuffer, a store (field, element, package-level
// variable, or local alias that itself escapes — conservatively, any
// local alias counts, matching bufleak's own storage rule), a channel
// send, a closure or goroutine capture, or a call position another
// summary already marks as a transfer sink.
func (f *Facts) taintTransfers(rec *funcRec, seed types.Object) bool {
	ts := &taintScan{
		facts:   f,
		info:    rec.pkg.Info,
		tainted: map[types.Object]bool{seed: true},
	}
	ast.Inspect(rec.decl.Body, func(n ast.Node) bool {
		if ts.transferred {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			// Capture by a closure: the closure's lifetime owns the value.
			if ts.usesTainted(t.Body) {
				ts.transferred = true
			}
			return false
		case *ast.AssignStmt:
			ts.assign(t)
		case *ast.DeclStmt:
			ts.declare(t)
		case *ast.SendStmt:
			if ts.exprTaints(t.Value) {
				ts.transferred = true
			}
		case *ast.GoStmt:
			// A goroutine receiving the value as an argument owns it.
			for _, a := range t.Call.Args {
				if ts.exprTaints(a) {
					ts.transferred = true
				}
			}
		case *ast.CallExpr:
			ts.call(t)
		}
		return true
	})
	return ts.transferred
}

type taintScan struct {
	facts       *Facts
	info        *types.Info
	tainted     map[types.Object]bool
	transferred bool
}

// exprTaints reports whether any identifier under e resolves to a tainted
// object.
func (ts *taintScan) exprTaints(e ast.Expr) bool {
	return e != nil && ts.usesTainted(e)
}

func (ts *taintScan) usesTainted(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := ts.info.Uses[id]; obj != nil && ts.tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// assign propagates taint through local aliases (m := queued{payload: b})
// and detects stores: writing a tainted value through a selector, index,
// dereference, or into a package-level variable hands ownership to the
// destination's owner.
func (ts *taintScan) assign(t *ast.AssignStmt) {
	pairwise := len(t.Lhs) == len(t.Rhs)
	any := false
	for _, r := range t.Rhs {
		if ts.exprTaints(r) {
			any = true
		}
	}
	if !any {
		return
	}
	for i, l := range t.Lhs {
		if pairwise && !ts.exprTaints(t.Rhs[i]) {
			continue
		}
		switch lhs := ast.Unparen(l).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := ts.info.Defs[lhs]
			if obj == nil {
				obj = ts.info.Uses[lhs]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				ts.transferred = true // store into a package-level variable
			} else {
				ts.tainted[v] = true // local alias: follow it too
			}
		default:
			ts.transferred = true
		}
	}
}

// declare handles `var m = tainted` alias declarations.
func (ts *taintScan) declare(t *ast.DeclStmt) {
	gd, ok := t.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		any := false
		for _, v := range vs.Values {
			if ts.exprTaints(v) {
				any = true
			}
		}
		if !any {
			continue
		}
		for _, name := range vs.Names {
			if obj := ts.info.Defs[name]; obj != nil {
				ts.tainted[obj] = true
			}
		}
	}
}

// call applies the transfer rules at a call site: bufpool recycling,
// summarized transfer parameters/receivers, and the one contract that
// stays name-based — OnMessage, transport.Config's function-field
// callback, whose ownership handoff is documented API, not inferable
// from a body the analyzer can see.
func (ts *taintScan) call(call *ast.CallExpr) {
	var taintedArgs []int
	for i, a := range call.Args {
		if ts.exprTaints(a) {
			taintedArgs = append(taintedArgs, i)
		}
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn := calleeFuncOf(ts.info, call); fn != nil {
		if len(taintedArgs) > 0 &&
			(funcIs(fn, bufpoolPkg, "Put") || funcIs(fn, bufpoolPkg, "PutBuffer")) {
			ts.transferred = true
			return
		}
		ft := ts.facts.Summary(fn)
		if ft == nil {
			return // external code: a borrow
		}
		sig, _ := fn.Type().(*types.Signature)
		for _, i := range taintedArgs {
			pi := i
			if sig != nil && sig.Variadic() && pi >= sig.Params().Len()-1 {
				pi = sig.Params().Len() - 1
			}
			if pi < len(ft.TransferParams) && ft.TransferParams[pi] {
				ts.transferred = true
				return
			}
		}
		if ft.RecvTransfer && sel != nil && ts.exprTaints(sel.X) {
			ts.transferred = true
		}
		return
	}
	if len(taintedArgs) == 0 {
		return
	}
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	}
	if isOnMessageSink(name) {
		ts.transferred = true
	}
}

// --- goroutine-lifecycle facts -----------------------------------------------

// goroFacts scans rec's body (not nested literals, not `go` targets) for
// the two shutdown-path signals gorolife accepts: a sync.WaitGroup.Done
// call and a channel receive in any form.
func (f *Facts) goroFacts(rec *funcRec) (wgDone, quitRecv bool) {
	info := rec.pkg.Info
	goTargets := map[*ast.CallExpr]bool{}
	ast.Inspect(rec.decl.Body, func(n ast.Node) bool {
		if wgDone && quitRecv {
			return false
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goTargets[t.Call] = true
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				quitRecv = true
			}
		case *ast.RangeStmt:
			if typ := info.TypeOf(t.X); typ != nil {
				if _, ok := typ.Underlying().(*types.Chan); ok {
					quitRecv = true
				}
			}
		case *ast.CallExpr:
			if goTargets[t] {
				return true
			}
			fn := calleeFuncOf(info, t)
			if methodIs(fn, "sync", "WaitGroup", "Done") {
				wgDone = true
				return true
			}
			if ft := f.Summary(fn); ft != nil {
				wgDone = wgDone || ft.WGDone
				quitRecv = quitRecv || ft.QuitRecv
			}
		}
		return true
	})
	return wgDone, quitRecv
}
