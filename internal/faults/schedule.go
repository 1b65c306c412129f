package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/clock"
	"github.com/kompics/kompicsmessaging-go/internal/wire"
)

// This file is the declarative layer above the Injector: a Schedule
// describes fault campaigns — rolling outages across a peer set, write
// stalls, datagram blackhole windows, flash-reconnect storms — and a
// Runner plans them into a deterministic arm/remove timeline and executes
// it over an injectable clock.Clock.
//
// Determinism is the design center. All randomness (jitter) is drawn at
// plan time from a PRNG seeded by the caller, in a fixed traversal order,
// so the same (schedule, seed) pair always yields the same plan. The
// runtime event log records plan-assigned sequence numbers and offsets,
// never clock readings, so two runs of the same seeded schedule — virtual
// clock or wall clock, regardless of timer interleaving — produce
// byte-identical FormatEvents output. That property is what lets the soak
// harness diff event logs across runs as a reproducibility gate.

// Target names a peer for the event log and lists the destination
// addresses its fault rules match against (a peer reachable over TCP and
// UDT has one dest per listener).
type Target struct {
	Name  string
	Dests []string
}

// Phase is one campaign within a schedule. Implementations plan
// themselves into arm/remove actions; they never touch the injector or
// the clock directly.
type Phase interface {
	// planPhase emits this phase's actions. rng is the schedule's seeded
	// PRNG; implementations must draw from it in a deterministic order.
	planPhase(rng *rand.Rand, p *planner)
}

// RollingOutage takes each target fully down in turn — dials refused,
// stream writes reset, datagrams dropped — holding each outage for
// OutageLen before restoring it and (after Gap) felling the next peer.
// Jitter > 0 shifts each peer's outage start by a seeded random offset in
// [0, Jitter).
type RollingOutage struct {
	Targets   []Target
	Start     time.Duration // offset of the first outage
	OutageLen time.Duration // how long each peer stays down
	Gap       time.Duration // pause between one recovery and the next outage
	Jitter    time.Duration // per-peer start jitter, drawn from the seed
	Rounds    int           // how many passes over the peer set; 0 means 1
}

func (ph RollingOutage) planPhase(rng *rand.Rand, p *planner) {
	rounds := ph.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	at := ph.Start
	for round := 0; round < rounds; round++ {
		for _, tgt := range ph.Targets {
			start := at + jitter(rng, ph.Jitter)
			for _, dest := range tgt.Dests {
				for _, spec := range []Spec{
					{Op: OpDial, Action: Refuse, Dest: dest},
					{Op: OpWrite, Action: Reset, Dest: dest},
					{Op: OpDatagram, Action: Drop, Dest: dest},
				} {
					p.window("rolling-outage", tgt.Name, spec, start, start+ph.OutageLen)
				}
			}
			at = start + ph.OutageLen + ph.Gap
		}
	}
}

// StallWindow parks every stream write towards the targets for Len; the
// window's close releases the stalled writers (the writes then proceed),
// modelling a peer that freezes without dropping its connections.
type StallWindow struct {
	Targets []Target
	Start   time.Duration
	Len     time.Duration
	Jitter  time.Duration
}

func (ph StallWindow) planPhase(rng *rand.Rand, p *planner) {
	for _, tgt := range ph.Targets {
		start := ph.Start + jitter(rng, ph.Jitter)
		for _, dest := range tgt.Dests {
			p.window("stall", tgt.Name, Spec{Op: OpWrite, Action: Stall, Dest: dest},
				start, start+ph.Len)
		}
	}
}

// BlackholeWindow silently drops datagrams towards the targets for Len —
// the classic lossy-network window the UDT reliability layer must ride
// through. Proto narrows the drop to one datagram protocol (0 = all).
type BlackholeWindow struct {
	Targets []Target
	Proto   wire.Transport
	Start   time.Duration
	Len     time.Duration
	Jitter  time.Duration
	// P, when in (0,1), drops probabilistically instead of totally.
	P float64
}

func (ph BlackholeWindow) planPhase(rng *rand.Rand, p *planner) {
	for _, tgt := range ph.Targets {
		start := ph.Start + jitter(rng, ph.Jitter)
		for _, dest := range tgt.Dests {
			p.window("blackhole", tgt.Name,
				Spec{Op: OpDatagram, Action: Drop, Proto: ph.Proto, Dest: dest, P: ph.P},
				start, start+ph.Len)
		}
	}
}

// ReconnectStorm fires Pulses one-shot connection resets at each target,
// Gap apart — the flash-reconnect pattern where a channel bounces
// repeatedly and supervision must re-establish it every time without
// leaking state. Each pulse is a Count-1 Reset rule; the rule is removed
// at the end of its window whether or not a write consumed it.
type ReconnectStorm struct {
	Targets []Target
	Start   time.Duration
	Pulses  int
	Gap     time.Duration
	Jitter  time.Duration
}

func (ph ReconnectStorm) planPhase(rng *rand.Rand, p *planner) {
	pulses := ph.Pulses
	if pulses <= 0 {
		pulses = 1
	}
	for _, tgt := range ph.Targets {
		at := ph.Start + jitter(rng, ph.Jitter)
		for pulse := 0; pulse < pulses; pulse++ {
			for _, dest := range tgt.Dests {
				p.window("reconnect-storm", tgt.Name,
					Spec{Op: OpWrite, Action: Reset, Dest: dest, Count: 1},
					at, at+ph.Gap)
			}
			at += ph.Gap
		}
	}
}

// Schedule is an ordered list of phases. Phases may overlap in time; the
// order only fixes the planning (and therefore jitter-draw) sequence.
type Schedule struct {
	Name   string
	Phases []Phase
}

// NewSchedule returns an empty named schedule.
func NewSchedule(name string) *Schedule { return &Schedule{Name: name} }

// Add appends a phase and returns the schedule for chaining.
func (s *Schedule) Add(ph Phase) *Schedule {
	s.Phases = append(s.Phases, ph)
	return s
}

// EventKind says what the runner did with a rule.
type EventKind int

const (
	// EventArm records a rule being installed into the injector.
	EventArm EventKind = iota + 1
	// EventRemove records a rule being removed (window closed).
	EventRemove
)

func (k EventKind) String() string {
	switch k {
	case EventArm:
		return "arm"
	case EventRemove:
		return "remove"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the runner's log. Everything in it is assigned at
// plan time — Seq in plan order, At as an offset from schedule start —
// so the log's content is a pure function of (schedule, seed).
type Event struct {
	Seq    int
	At     time.Duration
	Kind   EventKind
	Phase  string
	Target string
	Spec   Spec
}

// String renders one event in the stable format goldens assert on.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s seq=%03d at=%-8s phase=%-16s target=%-8s op=%s action=%s",
		e.Kind, e.Seq, e.At, e.Phase, e.Target, opName(e.Spec.Op), actionName(e.Spec.Action))
	if e.Spec.Dest != "" {
		fmt.Fprintf(&b, " dest=%s", e.Spec.Dest)
	}
	if e.Spec.Proto != 0 {
		fmt.Fprintf(&b, " proto=%v", e.Spec.Proto)
	}
	if e.Spec.P > 0 {
		fmt.Fprintf(&b, " p=%g", e.Spec.P)
	}
	if e.Spec.Count > 0 {
		fmt.Fprintf(&b, " count=%d", e.Spec.Count)
	}
	return b.String()
}

var (
	opNames     = [...]string{OpDial: "dial", OpWrite: "write", OpDatagram: "datagram"}
	actionNames = [...]string{Refuse: "refuse", Reset: "reset", Stall: "stall", Drop: "drop"}
)

func opName(op Op) string {
	if op > 0 && int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

func actionName(a Action) string {
	if a > 0 && int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// FormatEvents renders events one per line — the golden-log and
// plan-diff format.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// action is one planned injector operation.
type action struct {
	ev     Event
	armSeq int // for removes: the Seq of the arm this clears
}

// planner accumulates actions during phase planning.
type planner struct {
	actions []action
	nextSeq int
}

// window emits the arm/remove pair for one rule's lifetime.
func (p *planner) window(phase, target string, spec Spec, from, to time.Duration) {
	armSeq := p.nextSeq
	p.actions = append(p.actions, action{ev: Event{
		Seq: armSeq, At: from, Kind: EventArm,
		Phase: phase, Target: target, Spec: spec,
	}})
	p.nextSeq++
	p.actions = append(p.actions, action{ev: Event{
		Seq: p.nextSeq, At: to, Kind: EventRemove,
		Phase: phase, Target: target, Spec: spec,
	}, armSeq: armSeq})
	p.nextSeq++
}

// jitter draws a uniform duration in [0, max); zero max draws nothing,
// keeping the PRNG stream identical whether or not a phase uses jitter.
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}

// Runner executes a planned schedule against an Injector over a Clock.
// Construct with NewRunner (which does all the planning), then Start. A
// Runner is single-use.
type Runner struct {
	inj  *Injector
	clk  clock.Clock
	plan []action

	mu        sync.Mutex
	started   bool
	stopped   bool
	timers    []clock.Timer
	ruleIDs   map[int]RuleID // arm Seq -> installed rule
	events    []Event
	remaining int
	done      chan struct{}
}

// NewRunner plans the schedule with jitter drawn from seed and returns a
// runner ready to Start. Planning happens entirely here: after NewRunner
// the timeline is fixed, and Plan can render it without running anything.
func NewRunner(s *Schedule, inj *Injector, clk clock.Clock, seed int64) *Runner {
	p := &planner{}
	rng := rand.New(rand.NewSource(seed))
	for _, ph := range s.Phases {
		ph.planPhase(rng, p)
	}
	// Execution order is chronological; Seq breaks ties so simultaneous
	// actions run in plan order on every clock implementation.
	sort.SliceStable(p.actions, func(i, j int) bool {
		if p.actions[i].ev.At != p.actions[j].ev.At {
			return p.actions[i].ev.At < p.actions[j].ev.At
		}
		return p.actions[i].ev.Seq < p.actions[j].ev.Seq
	})
	return &Runner{
		inj: inj, clk: clk, plan: p.actions,
		ruleIDs:   make(map[int]RuleID),
		remaining: len(p.actions),
		done:      make(chan struct{}),
	}
}

// Plan returns the full planned timeline in execution order, before or
// after running. kmsoak's -print-plan and the determinism tests diff
// FormatEvents(Plan()) across seeds.
func (r *Runner) Plan() []Event {
	out := make([]Event, len(r.plan))
	for i, a := range r.plan {
		out[i] = a.ev
	}
	return out
}

// Horizon returns the offset of the last planned action — the minimum
// run duration that lets the schedule complete.
func (r *Runner) Horizon() time.Duration {
	if len(r.plan) == 0 {
		return 0
	}
	return r.plan[len(r.plan)-1].ev.At
}

// Start arms one timer per planned action. Offsets are measured from the
// moment Start is called.
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	if len(r.plan) == 0 {
		close(r.done)
		return
	}
	for i := range r.plan {
		a := r.plan[i]
		r.timers = append(r.timers, r.clk.AfterFunc(a.ev.At, func() { r.fire(a) }))
	}
}

// fire executes one action: install or remove the rule, log the event.
func (r *Runner) fire(a action) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	switch a.ev.Kind {
	case EventArm:
		r.ruleIDs[a.ev.Seq] = r.inj.Add(a.ev.Spec)
	case EventRemove:
		if id, ok := r.ruleIDs[a.armSeq]; ok {
			r.inj.Remove(id)
			delete(r.ruleIDs, a.armSeq)
		}
	}
	r.events = append(r.events, a.ev)
	r.remaining--
	if r.remaining == 0 {
		close(r.done)
	}
}

// Done is closed once every planned action has executed.
func (r *Runner) Done() <-chan struct{} { return r.done }

// Stop cancels pending timers and removes every rule the runner still
// has armed, releasing any writers stalled on them. Safe to call at any
// point, including after completion.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	for _, t := range r.timers {
		t.Stop()
	}
	for seq, id := range r.ruleIDs {
		r.inj.Remove(id)
		delete(r.ruleIDs, seq)
	}
	if r.remaining > 0 {
		r.remaining = 0
		close(r.done)
	}
}

// Events returns the executed log in chronological (At, Seq) order. On a
// completed run it equals Plan(); after an early Stop it is the executed
// prefix. Content never depends on clock readings, so identical seeds
// give identical logs.
func (r *Runner) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
