package faults

import (
	"strings"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

func twoPeers() []Target {
	return []Target{
		{Name: "peer-a", Dests: []string{"127.0.0.1:9001"}},
		{Name: "peer-b", Dests: []string{"127.0.0.1:9002"}},
	}
}

// TestRollingOutagePhaseBoundaries drives a jitter-free rolling outage on
// a virtual clock and checks the injector's rule set flips at exactly the
// planned phase boundaries.
func TestRollingOutagePhaseBoundaries(t *testing.T) {
	inj := New(1)
	vc := clock.NewVirtual()
	s := NewSchedule("boundaries").Add(RollingOutage{
		Targets:   twoPeers(),
		Start:     10 * time.Millisecond,
		OutageLen: 20 * time.Millisecond,
		Gap:       5 * time.Millisecond,
	})
	r := NewRunner(s, inj, vc, 0)
	r.Start()

	dialDown := func(dest string) bool {
		return inj.dial(wire.TCP, dest) == ErrDialRefused
	}
	a, b := "127.0.0.1:9001", "127.0.0.1:9002"

	if dialDown(a) || dialDown(b) {
		t.Fatal("outage active before schedule start")
	}
	vc.Advance(10 * time.Millisecond) // t=10ms: peer-a down
	if !dialDown(a) {
		t.Fatal("peer-a not down at its outage start")
	}
	if dialDown(b) {
		t.Fatal("peer-b down during peer-a's window")
	}
	if !inj.dropDatagram(wire.UDT, a) {
		t.Fatal("peer-a datagrams not dropped during outage")
	}
	vc.Advance(20 * time.Millisecond) // t=30ms: peer-a restored, gap
	if dialDown(a) {
		t.Fatal("peer-a still down after its window closed")
	}
	if dialDown(b) {
		t.Fatal("peer-b down during the gap")
	}
	vc.Advance(5 * time.Millisecond) // t=35ms: peer-b down
	if !dialDown(b) {
		t.Fatal("peer-b not down at its outage start")
	}
	vc.Advance(20 * time.Millisecond) // t=55ms: all clear, schedule done
	if dialDown(a) || dialDown(b) {
		t.Fatal("outage persists past the schedule horizon")
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("runner not done after the horizon")
	}
	if got, want := r.Horizon(), 55*time.Millisecond; got != want {
		t.Fatalf("Horizon = %v, want %v", got, want)
	}
}

// TestDeterminismAcrossSeeds pins the reproducibility contract: the same
// seed yields a byte-identical plan and executed log; a different seed
// moves the jittered offsets.
func TestDeterminismAcrossSeeds(t *testing.T) {
	build := func() *Schedule {
		return NewSchedule("det").
			Add(RollingOutage{
				Targets: twoPeers(), Start: 5 * time.Millisecond,
				OutageLen: 10 * time.Millisecond, Gap: 2 * time.Millisecond,
				Jitter: 4 * time.Millisecond, Rounds: 2,
			}).
			Add(BlackholeWindow{
				Targets: twoPeers()[:1], Proto: wire.UDT,
				Start: 8 * time.Millisecond, Len: 6 * time.Millisecond,
				Jitter: 3 * time.Millisecond, P: 0.5,
			}).
			Add(ReconnectStorm{
				Targets: twoPeers()[1:], Start: 20 * time.Millisecond,
				Pulses: 3, Gap: 4 * time.Millisecond, Jitter: 2 * time.Millisecond,
			})
	}
	run := func(seed int64) (plan, log string) {
		inj := New(1)
		vc := clock.NewVirtual()
		r := NewRunner(build(), inj, vc, seed)
		plan = FormatEvents(r.Plan())
		r.Start()
		vc.Advance(r.Horizon() + time.Millisecond)
		select {
		case <-r.Done():
		default:
			t.Fatal("runner did not finish within its horizon")
		}
		return plan, FormatEvents(r.Events())
	}
	p1, l1 := run(42)
	p2, l2 := run(42)
	p3, _ := run(43)
	if p1 != p2 {
		t.Errorf("same seed, different plans:\n%s\nvs\n%s", p1, p2)
	}
	if l1 != l2 {
		t.Errorf("same seed, different logs:\n%s\nvs\n%s", l1, l2)
	}
	if l1 != p1 {
		t.Errorf("completed log differs from plan:\n%s\nvs\n%s", l1, p1)
	}
	if p1 == p3 {
		t.Error("different seeds produced identical jittered plans")
	}
}

// TestEventLogGolden pins the exact log format for a small jitter-free
// schedule — the format kmsoak prints and CI diffs.
func TestEventLogGolden(t *testing.T) {
	inj := New(1)
	vc := clock.NewVirtual()
	s := NewSchedule("golden").Add(StallWindow{
		Targets: []Target{{Name: "peer-a", Dests: []string{"10.0.0.1:4000"}}},
		Start:   2 * time.Millisecond,
		Len:     3 * time.Millisecond,
	})
	r := NewRunner(s, inj, vc, 7)
	r.Start()
	vc.Advance(5 * time.Millisecond)
	got := FormatEvents(r.Events())
	want := strings.Join([]string{
		"arm      seq=000 at=2ms      phase=stall            target=peer-a   op=write action=stall dest=10.0.0.1:4000",
		"remove   seq=001 at=5ms      phase=stall            target=peer-a   op=write action=stall dest=10.0.0.1:4000",
		"",
	}, "\n")
	if got != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestStallWindowReleasesWriters checks the remove side of a stall window
// actually unblocks a parked writer.
func TestStallWindowReleasesWriters(t *testing.T) {
	inj := New(1)
	vc := clock.NewVirtual()
	dest := "127.0.0.1:7000"
	s := NewSchedule("stall").Add(StallWindow{
		Targets: []Target{{Name: "p", Dests: []string{dest}}},
		Start:   0, Len: 10 * time.Millisecond,
	})
	r := NewRunner(s, inj, vc, 0)
	r.Start()
	vc.Advance(0) // arm the stall
	done := make(chan error, 1)
	go func() { done <- inj.write(wire.TCP, dest) }()
	select {
	case err := <-done:
		t.Fatalf("write not stalled (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	vc.Advance(10 * time.Millisecond) // window closes, rule removed
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still stalled after window close")
	}
}

// TestReconnectStormPulses checks each pulse resets exactly one write.
func TestReconnectStormPulses(t *testing.T) {
	inj := New(1)
	vc := clock.NewVirtual()
	dest := "127.0.0.1:7100"
	s := NewSchedule("storm").Add(ReconnectStorm{
		Targets: []Target{{Name: "p", Dests: []string{dest}}},
		Start:   0, Pulses: 3, Gap: 5 * time.Millisecond,
	})
	r := NewRunner(s, inj, vc, 0)
	r.Start()
	resets := 0
	for i := 0; i < 3; i++ {
		vc.Advance(0)
		if inj.write(wire.TCP, dest) == ErrConnReset {
			resets++
		}
		if inj.write(wire.TCP, dest) == ErrConnReset {
			t.Fatalf("pulse %d fired twice (Count=1 not honoured)", i)
		}
		vc.Advance(5 * time.Millisecond)
	}
	if resets != 3 {
		t.Fatalf("resets = %d, want 3", resets)
	}
}

// TestStopCleansUp checks Stop removes armed rules and releases writers
// mid-schedule.
func TestStopCleansUp(t *testing.T) {
	inj := New(1)
	vc := clock.NewVirtual()
	dest := "127.0.0.1:7200"
	s := NewSchedule("stop").Add(RollingOutage{
		Targets:   []Target{{Name: "p", Dests: []string{dest}}},
		Start:     0,
		OutageLen: time.Hour, // never ends on its own
	})
	r := NewRunner(s, inj, vc, 0)
	r.Start()
	vc.Advance(0)
	if inj.dial(wire.TCP, dest) != ErrDialRefused {
		t.Fatal("outage not armed")
	}
	r.Stop()
	if err := inj.dial(wire.TCP, dest); err != nil {
		t.Fatalf("rule survived Stop: %v", err)
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("Done not closed by Stop")
	}
	if got := len(r.Events()); got != 3 {
		t.Fatalf("executed events = %d, want 3 (the three arms)", got)
	}
}
