package data

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/rl"
)

// EpisodeStats summarises one learning episode (default 1 s) of a data
// stream, and is the reward signal for adaptive ratio policies.
type EpisodeStats struct {
	// Duration is the episode length.
	Duration time.Duration
	// BytesSent is the payload volume handed to the wire during the
	// episode.
	BytesSent int64
	// MsgsSent counts messages released during the episode.
	MsgsSent int
	// MsgsDropped counts released messages the transport's pending queue
	// shed under overload (*transport.ErrDropped outcomes) during the
	// episode — queue-full rejections, latest-value coalesces, and
	// deadline expiries alike.
	MsgsDropped int
	// AvgQueueDelay is the mean time messages spent in the interceptor
	// queue before release.
	AvgQueueDelay time.Duration
}

// Throughput returns the episode's goodput in bytes/second.
func (s EpisodeStats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BytesSent) / s.Duration.Seconds()
}

// DropRate returns the fraction of the episode's released messages the
// transport shed (0 when nothing was sent).
func (s EpisodeStats) DropRate() float64 {
	if s.MsgsSent <= 0 {
		return 0
	}
	return float64(s.MsgsDropped) / float64(s.MsgsSent)
}

// ProtocolRatioPolicy prescribes the target TCP/UDT ratio over time
// (§IV-C). Update is called once per episode with that episode's
// statistics and returns the ratio for the next episode.
type ProtocolRatioPolicy interface {
	// Initial returns the starting ratio.
	Initial() Ratio
	// Update consumes the last episode's statistics and returns the next
	// target ratio.
	Update(stats EpisodeStats) Ratio
}

// StaticRatio pins the target ratio for the whole run; the reference
// policy used to exercise PSPs and as the TCP/UDT baselines in the
// figures.
type StaticRatio struct {
	R Ratio
}

var _ ProtocolRatioPolicy = StaticRatio{}

// Initial implements ProtocolRatioPolicy.
func (s StaticRatio) Initial() Ratio { return s.R }

// Update implements ProtocolRatioPolicy.
func (s StaticRatio) Update(EpisodeStats) Ratio { return s.R }

// EstimatorKind selects the TD learner's value backend.
type EstimatorKind int

// The three backends of §IV-C3–5.
const (
	// MatrixEstimator is the plain Q(s,a) table (figure 4).
	MatrixEstimator EstimatorKind = iota + 1
	// ModelEstimator collapses Q into V(s) with the ratio-space model
	// (figure 5).
	ModelEstimator
	// ApproxEstimator adds quadratic value approximation (figure 6).
	ApproxEstimator
)

// String implements fmt.Stringer.
func (k EstimatorKind) String() string {
	switch k {
	case MatrixEstimator:
		return "matrix"
	case ModelEstimator:
		return "model"
	case ApproxEstimator:
		return "approx"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// LearnerConfig parameterises TDRatioLearner. Zero values take the
// paper's figure-4 defaults.
type LearnerConfig struct {
	// Estimator picks the value backend (default ApproxEstimator).
	Estimator EstimatorKind
	// Grid is the inverse ratio step κ⁻¹ (default 5, i.e. 11 states from
	// −1 to 1 in steps of 1/5).
	Grid int
	// MaxStep bounds actions to ±MaxStep grid steps per episode
	// (default 2, giving 5 actions).
	MaxStep int
	// Alpha, Gamma, Lambda are the Sarsa(λ) parameters (defaults 0.5,
	// 0.5, 0.85 as in §IV-C3).
	Alpha, Gamma, Lambda float64
	// EpsMax, EpsMin, EpsDecay parameterise exploration (defaults 0.8,
	// 0.1, 0.01; figures 5–6 use EpsMax 0.3).
	EpsMax, EpsMin, EpsDecay float64
	// Initial is the starting ratio (default Even).
	Initial Ratio
	// RewardScale divides throughput rewards into a convenient range
	// (default 1 MB/s per reward unit).
	RewardScale float64
	// LatencyWeight scales the queue-delay penalty subtracted from the
	// reward (reward units per second of average interceptor queueing).
	// Zero disables the penalty. The paper's learner "uses collected
	// throughput and latency statistics as rewards" (§IV-C2); a positive
	// weight biases the learner towards ratios that keep the stream
	// responsive, not just fast.
	LatencyWeight float64
	// DropWeight scales the overload penalty subtracted from the reward
	// (reward units per unit drop rate). Zero disables it. An episode's
	// DropRate is the sharpest overload signal the learner gets — a
	// ratio that overruns a lane's pending queue sheds messages the same
	// episode, where the queue-delay penalty only climbs once backlogs
	// are already deep.
	DropWeight float64
	// Rand is required for reproducible exploration.
	Rand *rand.Rand
}

func (c *LearnerConfig) applyDefaults() {
	if c.Estimator == 0 {
		c.Estimator = ApproxEstimator
	}
	if c.Grid <= 0 {
		c.Grid = 5
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 2
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.Lambda == 0 {
		c.Lambda = 0.85
	}
	if c.EpsMax == 0 {
		c.EpsMax = 0.8
	}
	if c.EpsMin == 0 {
		c.EpsMin = 0.1
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 0.01
	}
	if c.Initial == (Ratio{}) {
		c.Initial = Even
	}
	if c.RewardScale == 0 {
		c.RewardScale = 1 << 20
	}
}

// TDRatioLearner adapts the target ratio online with Sarsa(λ) (§IV-C2).
// States are the discretised ratio grid; actions move up to MaxStep grid
// steps per episode; rewards are episode throughput.
type TDRatioLearner struct {
	cfg     LearnerConfig
	sarsa   *rl.Sarsa
	states  int
	actions int
	state   rl.State
	started bool
}

var _ ProtocolRatioPolicy = (*TDRatioLearner)(nil)

// NewTDRatioLearner builds the learner; cfg.Rand is required.
func NewTDRatioLearner(cfg LearnerConfig) (*TDRatioLearner, error) {
	cfg.applyDefaults()
	if cfg.Rand == nil {
		return nil, fmt.Errorf("data: LearnerConfig.Rand is required")
	}
	states := 2*cfg.Grid + 1
	actions := 2*cfg.MaxStep + 1
	model := ratioModel(states, cfg.MaxStep)

	var est rl.Estimator
	switch cfg.Estimator {
	case MatrixEstimator:
		est = rl.NewMatrix(states, actions)
	case ModelEstimator:
		est = rl.NewModelBased(states, model)
	case ApproxEstimator:
		est = rl.NewApprox(states, model)
	default:
		return nil, fmt.Errorf("data: unknown estimator kind %v", cfg.Estimator)
	}

	sarsa, err := rl.NewSarsa(rl.Config{
		States: states, Actions: actions,
		Alpha: cfg.Alpha, Gamma: cfg.Gamma, Lambda: cfg.Lambda,
		EpsMax: cfg.EpsMax, EpsMin: cfg.EpsMin, EpsDecay: cfg.EpsDecay,
		Estimator: est,
		Rand:      cfg.Rand,
	})
	if err != nil {
		return nil, fmt.Errorf("data: building learner: %w", err)
	}
	l := &TDRatioLearner{
		cfg:     cfg,
		sarsa:   sarsa,
		states:  states,
		actions: actions,
	}
	l.state = l.stateOf(cfg.Initial)
	return l, nil
}

// ratioModel is the paper's environment model M(s,a) = clamp(s+Δa) over
// the ratio grid (§IV-C4).
func ratioModel(states, maxStep int) rl.Model {
	return func(s rl.State, a rl.Action) rl.State {
		sp := int(s) + int(a) - maxStep
		if sp < 0 {
			sp = 0
		}
		if sp >= states {
			sp = states - 1
		}
		return rl.State(sp)
	}
}

// stateOf quantises a ratio onto the grid.
func (l *TDRatioLearner) stateOf(r Ratio) rl.State {
	steps := int(r.UDTFraction()*float64(l.states-1) + 0.5)
	return rl.State(steps)
}

// ratioOf converts a grid state back into a ratio.
func (l *TDRatioLearner) ratioOf(s rl.State) Ratio {
	r, err := NewRatio(int(s), l.states-1)
	if err != nil {
		panic(err) // unreachable: s ∈ [0, states-1]
	}
	return r
}

// Initial implements ProtocolRatioPolicy.
func (l *TDRatioLearner) Initial() Ratio { return l.cfg.Initial }

// reward converts one episode's statistics into the Sarsa(λ) reward:
// scaled throughput minus the optional queue-delay and drop-rate
// penalties.
func (l *TDRatioLearner) reward(stats EpisodeStats) float64 {
	reward := stats.Throughput() / l.cfg.RewardScale
	reward -= l.cfg.LatencyWeight * stats.AvgQueueDelay.Seconds()
	reward -= l.cfg.DropWeight * stats.DropRate()
	return reward
}

// Update implements ProtocolRatioPolicy: one Sarsa(λ) step per episode,
// rewarded with the episode's throughput minus the optional queue-delay
// and overload (drop-rate) penalties.
func (l *TDRatioLearner) Update(stats EpisodeStats) Ratio {
	reward := l.reward(stats)
	var action rl.Action
	if !l.started {
		action = l.sarsa.Start(l.state)
		l.started = true
		// The very first episode has no prior action to reward; move
		// immediately so exploration begins.
		l.state = ratioModel(l.states, l.cfg.MaxStep)(l.state, action)
		return l.ratioOf(l.state)
	}
	action = l.sarsa.Step(reward, l.state)
	l.state = ratioModel(l.states, l.cfg.MaxStep)(l.state, action)
	return l.ratioOf(l.state)
}

// Epsilon exposes the current exploration rate for instrumentation.
func (l *TDRatioLearner) Epsilon() float64 { return l.sarsa.Epsilon() }

// State exposes the current grid state for instrumentation.
func (l *TDRatioLearner) State() int { return int(l.state) }

// Balance returns the current target in the figures' [−1,1] form.
func (l *TDRatioLearner) Balance() float64 { return l.ratioOf(l.state).Balance() }
