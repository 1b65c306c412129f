package lint

// facts_test validates the interprocedural summaries against the real
// module, not fixtures: before the facts layer, bufleak carried a
// hardcoded table of ownership-transfer sinks (Endpoint.deliver,
// Endpoint.Send, decodeStage.submit, pktRing.storeOwned, outMsg.release).
// The table is gone; these tests pin that inference rederives every
// entry, so a regression in the taint walk surfaces here and not as a
// silent hole in bufleak.

import (
	"go/types"
	"path/filepath"
	"testing"
)

// factsUniverse loads the given module directories as analysis units and
// computes facts over them plus every retained dependency package,
// mirroring Run. The returned map is keyed by the relative dir.
func factsUniverse(t *testing.T, rels ...string) (map[string]*Package, *Facts) {
	t.Helper()
	loader := fixtureLoader(t)
	byRel := map[string]*Package{}
	var units []*Package
	for _, rel := range rels {
		dir := filepath.Join(loader.ModuleDir, filepath.FromSlash(rel))
		pkgs, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", rel, err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("LoadDir(%s): no packages", rel)
		}
		units = append(units, pkgs...)
		byRel[rel] = pkgs[0] // the directory's package; externals follow
	}
	universe := append(append([]*Package{}, units...), loader.DepPackages()...)
	return byRel, ComputeFacts(loader.Fset, universe)
}

// methodFact looks a method up by type and name in pkg's scope and
// returns its computed summary.
func methodFact(t *testing.T, facts *Facts, pkg *Package, typeName, method string) *FuncFact {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(typeName)
	if obj == nil {
		t.Fatalf("%s: no type %s in scope", pkg.Path, typeName)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("%s.%s is not a named type", pkg.Path, typeName)
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == method {
			ft := facts.Summary(m)
			if ft == nil {
				t.Fatalf("no summary for %s.%s.%s", pkg.Path, typeName, method)
			}
			return ft
		}
	}
	t.Fatalf("%s.%s has no method %s", pkg.Path, typeName, method)
	return nil
}

func TestInferredTransferFacts(t *testing.T) {
	pkgs, facts := factsUniverse(t, "internal/transport", "internal/udt", "internal/core")

	cases := []struct {
		rel, typ, method string
		param            int // -1: receiver transfer
	}{
		{"internal/transport", "Endpoint", "deliver", 1},
		{"internal/transport", "Endpoint", "Send", 2},
		{"internal/transport", "outMsg", "release", -1},
		{"internal/udt", "pktRing", "storeOwned", 1},
		{"internal/core", "decodeStage", "submit", 1},
	}
	for _, c := range cases {
		ft := methodFact(t, facts, pkgs[c.rel], c.typ, c.method)
		if c.param < 0 {
			if !ft.RecvTransfer {
				t.Errorf("%s.%s: RecvTransfer = false, want inferred receiver transfer", c.typ, c.method)
			}
			continue
		}
		if c.param >= len(ft.TransferParams) || !ft.TransferParams[c.param] {
			t.Errorf("%s.%s: TransferParams = %v, want transfer at param %d",
				c.typ, c.method, ft.TransferParams, c.param)
		}
	}

	// Read-only parameters must stay non-transfer, or bufleak would
	// treat every helper call as a release: findChannel only indexes the
	// registry with dest, storing nothing.
	find := methodFact(t, facts, pkgs["internal/transport"], "Endpoint", "findChannel")
	if find.TransferParams[1] {
		t.Error("Endpoint.findChannel: dest parameter inferred as transfer; inference is over-tainting")
	}
}

// TestGoroutineFacts pins a lifecycle summary gorolife leans on: the
// WorkPool worker signals its WaitGroup through a deferred call on a
// generic method, exercising both the transitive Done detection and the
// Origin mapping for instantiated call sites.
func TestGoroutineFacts(t *testing.T) {
	pkgs, facts := factsUniverse(t, "internal/kompics")

	worker := methodFact(t, facts, pkgs["internal/kompics"], "WorkPool", "worker")
	if !worker.WGDone {
		t.Error("WorkPool.worker: WGDone = false, want Done detected through deferred call")
	}
}
