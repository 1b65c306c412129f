package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/lint"
)

func runKmlint(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestList(t *testing.T) {
	code, out, _ := runKmlint("-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out, a.Name+" ") {
			t.Errorf("-list lacks %s:\n%s", a.Name, out)
		}
	}
}

func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-check", "nosuch"},
		{"-check", "bufleak", "-audit-ignores"},
		{"testdata-that-does-not-exist"},
	} {
		if code, _, _ := runKmlint(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestFindings runs one check over its analyzer's fixtures: the leaking
// fixture exits 1 with file:line: [check] findings, the clean one exits 0.
func TestFindings(t *testing.T) {
	const fixtures = "../../internal/lint/testdata/bufleak/"
	code, out, _ := runKmlint("-check", "bufleak", fixtures+"leak")
	if code != 1 || !strings.Contains(out, ": [bufleak] ") {
		t.Fatalf("leak fixture: exit %d, output:\n%s", code, out)
	}
	if code, out, errOut := runKmlint("-check", "bufleak", fixtures+"clean"); code != 0 {
		t.Fatalf("clean fixture: exit %d:\n%s%s", code, out, errOut)
	}
}
