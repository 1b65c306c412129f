package data

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/transport"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

func TestQoSDropRate(t *testing.T) {
	if r := (EpisodeStats{}).DropRate(); r != 0 {
		t.Fatalf("empty episode DropRate = %v, want 0", r)
	}
	if r := (EpisodeStats{MsgsDropped: 3}).DropRate(); r != 0 {
		t.Fatalf("nothing-sent episode DropRate = %v, want 0", r)
	}
	s := EpisodeStats{MsgsSent: 8, MsgsDropped: 2}
	if r := s.DropRate(); r != 0.25 {
		t.Fatalf("DropRate = %v, want 0.25", r)
	}
}

// TestQoSDropWeightInReward checks the overload term of the Sarsa(λ)
// reward: with DropWeight set, an episode's drop rate is subtracted at
// exactly that weight; with it zero, drops do not move the reward.
func TestQoSDropWeightInReward(t *testing.T) {
	mk := func(w float64) *TDRatioLearner {
		l, err := NewTDRatioLearner(LearnerConfig{
			Rand:       rand.New(rand.NewSource(1)),
			DropWeight: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	clean := EpisodeStats{Duration: time.Second, BytesSent: 1 << 20, MsgsSent: 100}
	shedding := clean
	shedding.MsgsDropped = 25 // drop rate 0.25

	l := mk(4)
	gap := l.reward(clean) - l.reward(shedding)
	if want := 4 * shedding.DropRate(); math.Abs(gap-want) > 1e-9 {
		t.Fatalf("drop penalty = %v, want DropWeight*DropRate = %v", gap, want)
	}

	if l0 := mk(0); l0.reward(clean) != l0.reward(shedding) {
		t.Fatal("DropWeight=0 but drops moved the reward")
	}

	// The penalty feeds Update without blowing up the ratio walk.
	l2 := mk(4)
	r := l2.Update(shedding)
	if f := r.UDTFraction(); f < 0 || f > 1 {
		t.Fatalf("ratio left [0,1] after overloaded episode: %v", r)
	}
}

// TestQoSInterceptorCountsDropsInEpisode feeds transport pending-queue
// outcomes back through OnSendResult: ErrDropped (even wrapped) charges
// the episode's MsgsDropped, other errors and successes do not, and the
// counter resets with the episode.
func TestQoSInterceptorCountsDropsInEpisode(t *testing.T) {
	var episodes []EpisodeStats
	ic, clk, sent := newTestInterceptor(t, InterceptorConfig{
		PSP:            NewPatternSelection(PureTCP),
		PRP:            StaticRatio{R: PureTCP},
		EpisodeLength:  time.Second,
		MaxOutstanding: 100,
		OnEpisode:      func(s EpisodeStats, _ Ratio) { episodes = append(episodes, s) },
	})
	ic.Start()
	for i := 0; i < 5; i++ {
		ic.Enqueue(&Item{Size: 100})
	}
	if len(*sent) != 5 {
		t.Fatalf("released %d of 5", len(*sent))
	}

	dropErr := &transport.ErrDropped{Reason: transport.DropCoalesced, Class: wire.ClassTelemetry}
	outcomes := []error{
		dropErr,
		fmt.Errorf("notify: %w", dropErr), // wrapped drops still count
		nil,
		nil,
		errors.New("connection reset"), // a wire failure is not a shed
	}
	for _, err := range outcomes {
		ic.OnSendResult((*sent)[0].proto, err)
	}

	clk.Advance(time.Second)
	if len(episodes) != 1 {
		t.Fatalf("episodes = %d, want 1", len(episodes))
	}
	st := episodes[0]
	if st.MsgsDropped != 2 {
		t.Fatalf("MsgsDropped = %d, want 2", st.MsgsDropped)
	}
	if got, want := st.DropRate(), 2.0/float64(st.MsgsSent); got != want {
		t.Fatalf("DropRate = %v, want %v", got, want)
	}

	// The next episode starts clean.
	clk.Advance(time.Second)
	if len(episodes) != 2 || episodes[1].MsgsDropped != 0 {
		t.Fatalf("second episode drop counter not reset: %+v", episodes)
	}
}
