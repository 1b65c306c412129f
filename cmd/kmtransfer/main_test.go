package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/testnet"
)

// childArg, as the first argument, makes the test binary run kmtransfer's
// main with the remaining arguments: the two-process test starts its
// sender that way, so the sender is the real command, exit path included.
const childArg = "kmtransfer"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lines is an io.Writer handing run's output to the test one line at a
// time; run writes each line with one call. The tests make it with room
// for every line a run prints, so run never waits on a test that has
// stopped reading.
type lines chan string

func (l lines) Write(p []byte) (int, error) {
	l <- strings.TrimSuffix(string(p), "\n")
	return len(p), nil
}

// waitLine reads out until a line starts with prefix and returns it.
func waitLine(t *testing.T, out lines, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case l := <-out:
			if strings.HasPrefix(l, prefix) {
				return l
			}
		case <-deadline:
			t.Fatalf("no %q line within %v", prefix, timeout)
		}
	}
}

// freeAddr returns a loopback address for one node.
func freeAddr(t *testing.T) string {
	t.Helper()
	p, err := testnet.FreePort(2)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("127.0.0.1:%d", p)
}

// startReceiver runs an in-process receiving kmtransfer until the test
// ends and returns its address and output.
func startReceiver(t *testing.T) (string, lines) {
	t.Helper()
	for try := 0; try < 5; try++ {
		addr := freeAddr(t)
		out := make(lines, 64)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- run(ctx, []string{"-listen", addr}, out) }()
		select {
		case <-out: // "receiving on …": the listeners are bound
			t.Cleanup(func() {
				cancel()
				if err := <-errc; err != nil {
					t.Error(err)
				}
			})
			return addr, out
		case err := <-errc: // lost a race for the port
			cancel()
			t.Logf("receiver on %s: %v", addr, err)
		}
	}
	t.Fatal("no receiver came up")
	return "", nil
}

func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-proto", "sctp"},
		{"-proto", "udp", "-dest", "127.0.0.1:1"},
		{"-ping", "-proto", "data", "-dest", "127.0.0.1:1"},
		{"-ping", "-count", "0", "-dest", "127.0.0.1:1"},
		{"-listen", "nowhere"},
		{"-dest", "nowhere"},
	} {
		if err := run(context.Background(), args, make(lines, 64)); err == nil {
			t.Errorf("run %v: accepted", args)
		}
	}
}

// transferMB keeps each transfer short; the linger it exercises is the
// same at any size that leaves data queued when the sender exits.
const transferMB = 8

var wantComplete = fmt.Sprintf("transfer 1 complete: %d bytes", transferMB<<20)

func TestTransferInProcess(t *testing.T) {
	for _, proto := range []string{"tcp", "udt", "data"} {
		t.Run(proto, func(t *testing.T) {
			dest, recvOut := startReceiver(t)
			out := make(lines, 64)
			err := run(context.Background(), []string{"-listen", freeAddr(t), "-dest", dest,
				"-proto", proto, "-mb", fmt.Sprint(transferMB)}, out)
			if err != nil {
				t.Fatal(err)
			}
			waitLine(t, out, fmt.Sprintf("sent %d bytes", transferMB<<20), time.Second)
			waitLine(t, recvOut, wantComplete, 10*time.Second)
		})
	}
}

func TestPingInProcess(t *testing.T) {
	dest, _ := startReceiver(t)
	out := make(lines, 64)
	err := run(context.Background(), []string{"-listen", freeAddr(t), "-dest", dest,
		"-ping", "-proto", "udt", "-count", "3", "-interval", "10ms"}, out)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 3; seq++ {
		waitLine(t, out, fmt.Sprintf("seq=%d rtt=", seq), time.Second)
	}
	waitLine(t, out, fmt.Sprintf("--- %s over UDT: 3 probes, mean ", dest), time.Second)
}

// TestShutdownDeliversTail is the paper's transfer between two processes:
// the sender is this binary re-executed as kmtransfer, which returns the
// moment its last notify arrives and exits through its deferred
// System.Shutdown. Whatever the transport accepted must still reach the
// receiver; over UDT that needs the network's OnStop to close the
// connection, which lingers until the send queue drains.
func TestShutdownDeliversTail(t *testing.T) {
	for _, proto := range []string{"tcp", "udt", "data"} {
		t.Run(proto, func(t *testing.T) {
			dest, recvOut := startReceiver(t)
			cmd := exec.Command(os.Args[0], childArg, "-listen", freeAddr(t), "-dest", dest,
				"-proto", proto, "-mb", fmt.Sprint(transferMB))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("sender: %v\n%s", err, out)
			}
			if want := fmt.Sprintf("sent %d bytes", transferMB<<20); !strings.Contains(string(out), want) {
				t.Fatalf("sender output lacks %q:\n%s", want, out)
			}
			waitLine(t, recvOut, wantComplete, 10*time.Second)
		})
	}
}
