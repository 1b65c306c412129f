package netsim

import (
	"testing"
	"time"
)

// smallCampaign is the shared small-scale config for determinism tests:
// every process enabled (flash crowd, churn, heartbeats, retransmission
// timeouts) over every topology.
func smallCampaign(topo string) CampaignConfig {
	return CampaignConfig{
		Endpoints: 600,
		Hosts:     30,
		Topology:  topo,
		Degree:    5,
		Fanout:    3,
		MsgSize:   512,
		Phase:     3 * time.Second,
		Seed:      42,
		Arrival: ArrivalConfig{
			MeanInterval: 400 * time.Millisecond,
			FlashAt:      time.Second,
			FlashLen:     500 * time.Millisecond,
			FlashFactor:  6,
		},
		Churn:             ChurnConfig{MeanFlipInterval: 50 * time.Millisecond},
		HeartbeatInterval: time.Second,
		RetransTimeout:    1500 * time.Millisecond,
		RecordTrace:       true,
	}
}

// TestCampaignDeterministicSameSeed is the end-to-end determinism
// property: the same seeded campaign run twice must produce byte-identical
// event traces, and therefore identical hashes and counters. The event
// core's own firing order is checked against the heap oracle in
// internal/clock.
func TestCampaignDeterministicSameSeed(t *testing.T) {
	for _, topo := range []string{"gossip", "star", "tree"} {
		a := NewCampaign(smallCampaign(topo))
		b := NewCampaign(smallCampaign(topo))
		ra := a.RunPhase()
		rb := b.RunPhase()
		ta, tb := a.Trace(), b.Trace()
		if len(ta) != len(tb) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", topo, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("%s: traces diverge at event %d:\n  first:  %s\n  second: %s", topo, i, ta[i], tb[i])
			}
		}
		if ra != rb {
			t.Fatalf("%s: results differ:\nfirst:  %+v\nsecond: %+v", topo, ra, rb)
		}
		if ra.TraceHash == 0 || ra.Sends == 0 || ra.Delivered == 0 {
			t.Fatalf("%s: degenerate campaign: %+v", topo, ra)
		}
	}
}

// TestCampaignDetectorDeterminism extends the same-seed property to the
// failure-detector process: with per-peer detectors enabled — the
// dominant pure-timer event class at campaign scale — two runs of the
// seeded campaign must produce identical results, detector tick counts,
// and suspicion counts over two phases. No goldens: the detector totals
// only need to agree and be non-degenerate.
func TestCampaignDetectorDeterminism(t *testing.T) {
	for _, topo := range []string{"gossip", "star"} {
		mk := func() CampaignConfig {
			cfg := smallCampaign(topo)
			cfg.DetectorFanout = 4
			cfg.DetectorInterval = 200 * time.Millisecond
			return cfg
		}
		a := NewCampaign(mk())
		b := NewCampaign(mk())
		for phase := 1; phase <= 2; phase++ {
			ra := a.RunPhase()
			rb := b.RunPhase()
			if ra != rb {
				t.Fatalf("%s phase %d: results differ:\nfirst:  %+v\nsecond: %+v", topo, phase, ra, rb)
			}
			if ra.DetectorTicks == 0 {
				t.Fatalf("%s phase %d: detectors enabled but no detector ticks: %+v", topo, phase, ra)
			}
			// Churn is on, so some probes must observe a down peer.
			if ra.Suspicions == 0 {
				t.Fatalf("%s phase %d: churn active but no suspicions: %+v", topo, phase, ra)
			}
			if ra.Suspicions >= ra.DetectorTicks {
				t.Fatalf("%s phase %d: suspicions %d should be a minority of %d ticks", topo, phase, ra.Suspicions, ra.DetectorTicks)
			}
		}
	}
}

// TestCampaignSeedSensitivity guards against the hash being insensitive:
// different seeds must produce different traces.
func TestCampaignSeedSensitivity(t *testing.T) {
	a := smallCampaign("gossip")
	b := a
	b.Seed = 43
	ra := NewCampaign(a).RunPhase()
	rb := NewCampaign(b).RunPhase()
	if ra.TraceHash == rb.TraceHash {
		t.Fatalf("different seeds produced identical trace hashes %#x", ra.TraceHash)
	}
}

// TestCampaignChurnFlashRegression pins exact event counts for a seeded
// churn + flash-crowd campaign. Any change to event ordering, arrival
// draws, routing, or the clock's firing rule shows up here as a count
// drift before it could silently skew benchmark results.
func TestCampaignChurnFlashRegression(t *testing.T) {
	c := NewCampaign(smallCampaign("tree"))
	r1 := c.RunPhase()
	r2 := c.RunPhase()
	// Golden values captured from the seeded run. They hold as long as the
	// event core fires in (deadline, creation-id) order, which
	// internal/clock checks against its heap oracle.
	assertEq := func(name string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	assertEq("phase1.Sends", r1.Sends, 6212)
	assertEq("phase1.Delivered", r1.Delivered, 5960)
	assertEq("phase1.ChurnFlips", r1.ChurnFlips, 63)
	assertEq("phase1.HeartbeatTicks", r1.HeartbeatTicks, 1800)
	assertEq("phase2.Sends", r2.Sends, 3939)
	assertEq("phase2.Delivered", r2.Delivered, 3952)
	if r1.LocalReflects == 0 || r1.ForwardHops == 0 {
		t.Errorf("tree campaign should reflect locally and forward: %+v", r1)
	}
	// The flash window sits inside phase 1 only: phase 1 must out-send a
	// flash-free phase 2 noticeably.
	if r1.Sends <= r2.Sends {
		t.Errorf("flash-crowd phase sent %d <= steady phase %d", r1.Sends, r2.Sends)
	}
}

// TestCampaignChurnDeadLetters checks the churn ↔ mux integration: with
// aggressive churn, some deliveries must land on unbound vnodes and be
// counted as dead-lettered, and flipped-down endpoints must stop sending.
func TestCampaignChurnDeadLetters(t *testing.T) {
	cfg := smallCampaign("gossip")
	cfg.Churn.MeanFlipInterval = 5 * time.Millisecond
	cfg.RecordTrace = false
	r := NewCampaign(cfg).RunPhase()
	if r.ChurnFlips == 0 {
		t.Fatal("no churn flips")
	}
	if r.DeliveredDown == 0 {
		t.Fatalf("no dead-lettered deliveries despite %d churn flips", r.ChurnFlips)
	}
	if r.DeliveredDown >= r.Delivered {
		t.Fatalf("dead-letters %d should be a minority of deliveries %d", r.DeliveredDown, r.Delivered)
	}
}

// TestCampaignTimeoutsStopOnDelivery checks the retransmission-timer
// contract: on loss-free fast paths nearly every timeout is cancelled by
// its delivery, so expiries stay rare.
func TestCampaignTimeoutsStopOnDelivery(t *testing.T) {
	cfg := smallCampaign("gossip")
	cfg.Churn = ChurnConfig{}
	r := NewCampaign(cfg).RunPhase()
	if r.Timeouts > r.Sends/10 {
		t.Fatalf("timeouts %d out of %d sends — retransmission timers are not being stopped", r.Timeouts, r.Sends)
	}
}

func TestMsgRing(t *testing.T) {
	var r msgRing
	if r.pop() != nil || r.len() != 0 {
		t.Fatal("empty ring misbehaves")
	}
	mk := func(id uint64) *Message { return &Message{ID: id} }
	// Interleave pushes and pops across several wraps and one growth.
	next, want := uint64(0), uint64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			r.push(mk(next))
			next++
		}
		for i := 0; i < 5; i++ {
			m := r.pop()
			if m == nil || m.ID != want {
				t.Fatalf("pop = %v, want ID %d", m, want)
			}
			want++
		}
	}
	if r.len() != int(next-want) {
		t.Fatalf("len = %d, want %d", r.len(), next-want)
	}
	for m := r.pop(); m != nil; m = r.pop() {
		if m.ID != want {
			t.Fatalf("drain pop ID = %d, want %d", m.ID, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d messages, want %d", want, next)
	}
	r.push(mk(1))
	r.reset()
	if r.len() != 0 || r.pop() != nil {
		t.Fatal("reset did not empty the ring")
	}
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("reset left slot %d populated", i)
		}
	}
}
