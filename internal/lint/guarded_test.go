package lint

import "testing"

func TestGuardedSeededBugs(t *testing.T) {
	runFixture(t, "testdata/guarded/bad", []*Analyzer{Guarded}, false)
}

func TestGuardedCleanPatterns(t *testing.T) {
	runFixture(t, "testdata/guarded/clean", []*Analyzer{Guarded}, false)
}
