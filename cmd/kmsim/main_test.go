package main

import (
	"os"
	"testing"
)

// quiet redirects stdout and stderr to /dev/null for the duration of a
// test so the bench line and progress output do not pollute test output.
func quiet(t *testing.T) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devnull, devnull
	t.Cleanup(func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devnull.Close()
	})
}

// tiny keeps a campaign to a few thousand events.
var tiny = []string{"-endpoints", "200", "-hosts", "20", "-phase", "500ms", "-detectors", "2"}

func TestRunBadFlag(t *testing.T) {
	quiet(t)
	for _, args := range [][]string{
		{"-nonsense"},
		{"-phases", "0", "-verify"},
		{"-phases", "-1"},
		{"-topology", "ring"},
	} {
		if err := run(append(args, tiny...)); err == nil {
			t.Errorf("run %v: accepted", args)
		}
	}
}

func TestRunTiny(t *testing.T) {
	quiet(t)
	for _, args := range [][]string{
		{"-verify"},
		{"-phases", "1", "-topology", "star"},
	} {
		if err := run(append(args, tiny...)); err != nil {
			t.Errorf("run %v: %v", args, err)
		}
	}
}
