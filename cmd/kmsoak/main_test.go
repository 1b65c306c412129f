package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/stats"
	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

// capture runs kmsoak with args and returns its exit code and everything
// it printed.
func capture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = f, f
	log.SetOutput(f) // the transports' warnings
	code, err := run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	log.SetOutput(os.Stderr)
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		out = append(out, err.Error()...)
	}
	return code, string(out)
}

func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-nodes", "1"},
		{"-max-pending", "0"},
		{"-schedule", "sometimes"},
	} {
		if code, _ := capture(t, args...); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
	}
}

func TestPrintPlanDeterministic(t *testing.T) {
	args := []string{"-print-plan", "-schedule", "mixed", "-seed", "7", "-duration", "30s"}
	_, a := capture(t, args...)
	_, b := capture(t, args...)
	if a != b {
		t.Fatalf("same seed, different plans:\n%s\n---\n%s", a, b)
	}
	if !strings.HasPrefix(a, "# schedule=mixed seed=7") {
		t.Fatalf("plan header missing:\n%s", a)
	}
}

// TestSoakShort runs a 3 s seeded rolling-outage soak on two nodes; every
// liveness gate must hold, the zero-leak gate after the systems' Shutdown
// has closed every endpoint included.
func TestSoakShort(t *testing.T) {
	base, err := testnet.FreePort(4)
	if err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, "-duration", "3s", "-nodes", "2", "-seed", "1",
		"-base-port", fmt.Sprint(base))
	if code != 0 || !strings.Contains(out, "kmsoak: PASS") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// TestInducedOutageNamesStuckChannel: a permanent outage of node1 fails
// the run, and the queue-drain violation names what is stuck: a channel
// to one of node1's destinations whose last status is not Up.
func TestInducedOutageNamesStuckChannel(t *testing.T) {
	base, err := testnet.FreePort(4)
	if err != nil {
		t.Fatal(err)
	}
	code, out := capture(t, "-duration", "3s", "-nodes", "2", "-seed", "1",
		"-base-port", fmt.Sprint(base), "-induce", "outage")
	if code != 1 {
		t.Fatalf("exit %d with node1 down for good, want 1:\n%s", code, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "queue drain:") {
			continue
		}
		for _, port := range []int{base + 2, base + 3} {
			if strings.Contains(line, fmt.Sprintf(" 127.0.0.1:%d ", port)) {
				return
			}
		}
		t.Fatalf("queue-drain violation names no dest of node1 (ports %d, %d): %s", base+2, base+3, line)
	}
	t.Fatalf("no queue-drain violation:\n%s", out)
}

// TestNoOutageWording pins what the outage gate says when it counted no
// outage: a channel that never came up names its unreachable peer, and
// only a run with no such channel blames the harness. Both fail the gate.
func TestNoOutageWording(t *testing.T) {
	never := newStatusWatcher(stats.NewRegistry())
	never.last[key(core.UDT, "127.0.0.1:17003")] = core.ChannelStatus{Proto: core.UDT, Dest: "127.0.0.1:17003",
		Kind: core.StatusRetry, At: time.Now(), Attempt: 3, Err: errors.New("connection refused")}
	for _, tc := range []struct {
		name   string
		status *statusWatcher
		want   []string
	}{
		{"peer never reachable", never, []string{"never came up", "node1 UDT 127.0.0.1:17003 retry", "connection refused"}},
		{"nothing happened", newStatusWatcher(stats.NewRegistry()), []string{"harness wiring broken"}},
	} {
		c := &cluster{nodes: []*node{{index: 1, status: tc.status}}}
		err := checkRecoveries(c, time.Second, true)
		if err == nil {
			t.Fatalf("%s: the gate passed with no outage observed", tc.name)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: %q does not say %q", tc.name, err, w)
			}
		}
		if err := checkRecoveries(c, time.Second, false); err != nil {
			t.Errorf("%s: with no outages expected the gate failed: %v", tc.name, err)
		}
	}
}
