// Package lint is kmlint's analyzer framework: a deliberately small,
// stdlib-only stand-in for golang.org/x/tools/go/analysis (which this
// environment cannot fetch). It exists because the invariants that make
// the middleware fast are invisible to the compiler: the pooled-buffer
// ownership contract (DESIGN.md "Hot path and buffer ownership"), the
// cooperative scheduler's no-blocking-handler rule, and the seeded
// determinism that lets internal/netsim stand in for the paper's EC2
// testbed. Each analyzer turns one of those documented contracts into a
// build-time diagnostic.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics through its Pass. Suppressions are explicit and audited:
// a `//kmlint:ignore <check> <reason>` comment on (or directly above) the
// offending line silences one finding, and
// `//kmlint:ignore-file <check> <reason>` silences a whole file — see
// ignore.go. The driver lives in cmd/kmlint.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects the package behind the Pass
// and reports findings; it must not retain the Pass.
type Analyzer struct {
	// Name is the check identifier used in diagnostics ("[name]") and in
	// kmlint:ignore directives.
	Name string
	// Doc describes the invariant the check enforces and where that
	// invariant is load-bearing.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees (including in-package test
	// files when analyzing a package under test).
	Files []*ast.File
	// Pkg and Info are the type-checker's results for Files.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the package's import path (or a testdata-relative
	// pseudo-path for fixtures).
	PkgPath string
	// Facts holds the module-wide interprocedural summaries (facts.go),
	// computed once per Run over every loaded package and its
	// module-internal dependencies. May be nil under RunPackage without
	// facts; Facts accessors are nil-safe.
	Facts *Facts

	diags *[]Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Suppressed marks a finding covered by a kmlint:ignore directive;
	// such findings are dropped unless RunOptions.KeepSuppressed asks for
	// them (the -json driver mode reports them annotated instead).
	Suppressed bool
	// IgnoredBy identifies the suppressing directive: "file:line (reason)".
	IgnoredBy string
}

// String formats the diagnostic in the driver's file:line: [check] message
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full kmlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{BufLeak, SimDet, HandlerBlock, LockSend, Guarded, LockOrder, GoroLife}
}

// AnalyzerByName resolves a check name, for the driver's -check flag and
// for fixture tests.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage applies the given analyzers to one loaded package with the
// given facts store (nil disables interprocedural checks) and returns the
// raw (unsuppressed) diagnostics.
func RunPackage(pkg *Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
			Facts:    facts,
			diags:    &diags,
		}
		a.Run(pass)
	}
	return diags
}

// RunOptions configures a Run.
type RunOptions struct {
	// ReportUnused reports kmlint:ignore directives that suppressed
	// nothing. Set it only when the full suite ran, since an ignore for an
	// analyzer that did not run always looks unused.
	ReportUnused bool
	// KeepSuppressed returns suppressed findings (marked, with IgnoredBy
	// set) instead of dropping them — the -json mode's audit trail.
	KeepSuppressed bool
}

// Run is the driver: it loads every directory, computes the
// interprocedural facts over the whole universe — the loaded packages
// plus every module-internal dependency the loader pulled in, ordered
// bottom-up over call-graph SCCs — then applies the analyzers one
// package at a time, filters suppressed findings and appends directive
// hygiene problems (malformed or unused ignores). Diagnostics come back
// sorted by position.
func Run(loader *Loader, dirs []string, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	var units []*Package
	var all []Diagnostic
	for _, dir := range dirs {
		pkgs, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, pkgs...)
	}

	universe := append([]*Package{}, units...)
	universe = append(universe, loader.DepPackages()...)
	facts := ComputeFacts(loader.Fset, universe)

	for _, pkg := range units {
		for _, terr := range pkg.TypeErrors {
			all = append(all, Diagnostic{
				Pos:     terr.Fset.Position(terr.Pos),
				Check:   "typecheck",
				Message: terr.Msg,
			})
		}
		diags := RunPackage(pkg, analyzers, facts)
		directives := collectDirectives(pkg.Fset, pkg.Files)
		all = append(all, applySuppressions(diags, directives, opts.KeepSuppressed)...)
		all = append(all, directiveProblems(directives, opts.ReportUnused)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Check < all[j].Check
	})
	return all, nil
}

// --- shared type-resolution helpers ------------------------------------------

// calleeFunc resolves the statically-known function or method a call
// invokes, or nil for calls of function values, conversions and builtins.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	return calleeFuncOf(p.Info, call)
}

// calleeVar resolves the function-valued variable (local, parameter or
// struct field) a call invokes, or nil when the callee is a declared
// function, method, conversion or builtin. Calls through such values are
// what locksend means by "callback".
func (p *Pass) calleeVar(call *ast.CallExpr) *types.Var {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	v, _ := p.Info.Uses[id].(*types.Var)
	if v == nil {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return v
}

// funcIs reports whether fn is the package-level function pkgSuffix.name,
// where pkgSuffix is matched against the end of the defining package's
// import path ("time" matches "time", "internal/bufpool" matches the
// module-qualified path).
func funcIs(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// methodIs reports whether fn is a method named name whose receiver's
// named type is recvName, defined in a package whose path ends in
// pkgSuffix.
func methodIs(fn *types.Func, pkgSuffix, recvName, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	if !pathHasSuffix(fn.Pkg().Path(), pkgSuffix) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeName(sig.Recv().Type()) == recvName
}

// recvPkgPath returns the import path of the package defining fn's
// receiver type, or "" for package-level functions.
func recvPkgPath(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			return t.Obj().Pkg().Path()
		}
	case *types.Interface:
		// Interface method sets carry no package; fall back to the
		// method's own package (where the interface is declared).
		if fn.Pkg() != nil {
			return fn.Pkg().Path()
		}
	}
	return ""
}

// namedTypeName unwraps pointers and returns the named type's name, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pathHasSuffix matches whole trailing path elements: "net" matches "net"
// but not "internal/testnet".
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// pkgPathElems splits an import path into its elements.
func pkgPathElems(path string) []string {
	return strings.Split(path, "/")
}
