package bench

import (
	"math"
	"testing"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/core"
	"github.com/kompics/kompicsmessaging-go/internal/netsim"
)

const mbps = 1 << 20

// --- Figure 1 -------------------------------------------------------------------

func TestFigure1Shape(t *testing.T) {
	rows := Figure1(1)
	// 4 targets × 2 policies × 2 windows.
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	find := func(targetBalance float64, policy, window string) Fig1Row {
		for _, r := range rows {
			if r.Policy == policy && r.Window == window &&
				math.Abs(r.Target.Balance()-targetBalance) < 1e-9 {
				return r
			}
		}
		t.Fatalf("row %v/%s/%s missing", targetBalance, policy, window)
		return Fig1Row{}
	}

	for _, target := range Figure1Targets() {
		b := target.Balance()
		patE := find(b, "Pattern", "Episode")
		rndE := find(b, "Random", "Episode")
		patW := find(b, "Pattern", "Wire")
		rndW := find(b, "Random", "Wire")

		// Means stay near the target for both policies.
		for _, r := range []Fig1Row{patE, rndE, patW, rndW} {
			if math.Abs(r.Box.Mean-b) > 0.05 {
				t.Errorf("%s/%s at %v: mean %.3f far from target",
					r.Policy, r.Window, b, r.Box.Mean)
			}
		}
		// The headline: pattern selection's worst-case deviation is never
		// worse than random's, per window.
		devMax := func(r Fig1Row) float64 {
			return math.Max(math.Abs(r.Box.Max-b), math.Abs(r.Box.Min-b))
		}
		if devMax(patE) > devMax(rndE) {
			t.Errorf("target %v: pattern episode deviation %.3f exceeds random %.3f",
				b, devMax(patE), devMax(rndE))
		}
		if devMax(patW) > devMax(rndW) {
			t.Errorf("target %v: pattern wire deviation %.3f exceeds random %.3f",
				b, devMax(patW), devMax(rndW))
		}
	}

	// Quantitative anchors from §IV-B2: random selection shows ≈0.1 skew
	// over full episodes and ≈0.5 over wire windows at moderate ratios.
	rndE := find(data13Balance(), "Random", "Episode")
	if dev := math.Abs(rndE.Box.Max - rndE.Target.Balance()); dev < 0.02 || dev > 0.25 {
		t.Errorf("random episode max-skew %.3f outside the paper's ≈0.1 regime", dev)
	}
	rndW := find(data13Balance(), "Random", "Wire")
	if dev := math.Abs(rndW.Box.Max - rndW.Target.Balance()); dev < 0.2 {
		t.Errorf("random wire max-skew %.3f; paper reports ≈0.5", dev)
	}
	// Pattern selection is exact over any window multiple of its period
	// — for 1/3 the period (3) divides neither window exactly... but the
	// episode-window deviation must be tiny.
	patE := find(data13Balance(), "Pattern", "Episode")
	if dev := math.Abs(patE.Box.Max - patE.Target.Balance()); dev > 0.01 {
		t.Errorf("pattern episode max-skew %.4f, want ≈0", dev)
	}
}

func data13Balance() float64 { return 2.0/3.0 - 1 } // UDT fraction 1/3

func TestFigure1PatternStrugglesAtExtremeRatios(t *testing.T) {
	// §IV-B4: at r = 3/100 the majority blocks are longer than the wire
	// window, so even the pattern selector shows significant wire-window
	// skew. This is a documented limitation, not a bug.
	rows := Figure1(1)
	for _, r := range rows {
		if r.Policy == "Pattern" && r.Window == "Wire" &&
			math.Abs(r.Target.UDTFraction()-0.03) < 1e-9 {
			if math.Abs(r.Box.Min-r.Target.Balance()) < 0.02 {
				t.Fatal("expected visible wire-window skew at r=3/100")
			}
			return
		}
	}
	t.Fatal("3/100 pattern wire row missing")
}

// --- Figure 9 -------------------------------------------------------------------

// smallFig9 runs figure 9 with the paper's dataset size but fewer
// repetitions. The full size matters: the DATA learner needs several
// 1-second episodes to converge, and the paper's 395 MB transfer is what
// amortises that ramp-up (its documented drawback).
func smallFig9(t *testing.T) []Fig9Row {
	t.Helper()
	rows, err := Figure9(Fig9Options{
		Size: 395 << 20,
		// The paper's stopping rule: at least 10 runs, continue until
		// RSE < 10%. The repetitions matter for DATA: the persistent
		// learner converges over the first few runs.
		MinRuns: 10, MaxRuns: 20,
		RSETarget: 0.10,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func fig9Cell(t *testing.T, rows []Fig9Row, setup string, proto core.Transport) Fig9Row {
	t.Helper()
	for _, r := range rows {
		if r.Setup == setup && r.Proto == proto {
			return r
		}
	}
	t.Fatalf("cell %s/%v missing", setup, proto)
	return Fig9Row{}
}

func TestFigure9Shape(t *testing.T) {
	rows := smallFig9(t)
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 (4 setups × 3 protocols)", len(rows))
	}

	// TCP: strong at short RTT, collapsing at long RTT.
	tcpLocal := fig9Cell(t, rows, "Local", core.TCP).MeanThroughput
	tcpVPC := fig9Cell(t, rows, "EU-VPC", core.TCP).MeanThroughput
	tcpUS := fig9Cell(t, rows, "EU2US", core.TCP).MeanThroughput
	tcpAU := fig9Cell(t, rows, "EU2AU", core.TCP).MeanThroughput
	if tcpLocal < 90*mbps || tcpVPC < 80*mbps {
		t.Errorf("short-RTT TCP weak: local %.1f, VPC %.1f MB/s",
			tcpLocal/mbps, tcpVPC/mbps)
	}
	if tcpUS > 5*mbps || tcpAU > 3*mbps || tcpAU >= tcpUS {
		t.Errorf("TCP did not collapse with RTT: US %.2f, AU %.2f MB/s",
			tcpUS/mbps, tcpAU/mbps)
	}

	// UDT: pinned near the policer on real networks, regardless of RTT.
	for _, setup := range []string{"EU-VPC", "EU2US", "EU2AU"} {
		u := fig9Cell(t, rows, setup, core.UDT).MeanThroughput
		if u < 7*mbps || u > 11*mbps {
			t.Errorf("%s UDT = %.2f MB/s, want ≈10", setup, u/mbps)
		}
	}

	// Crossover: TCP wins up to the VPC, UDT wins transcontinentally —
	// by roughly an order of magnitude each way, as in the paper.
	udtVPC := fig9Cell(t, rows, "EU-VPC", core.UDT).MeanThroughput
	if tcpVPC < 5*udtVPC {
		t.Errorf("VPC: TCP (%.1f) not ≫ UDT (%.1f)", tcpVPC/mbps, udtVPC/mbps)
	}
	udtAU := fig9Cell(t, rows, "EU2AU", core.UDT).MeanThroughput
	if udtAU < 5*tcpAU {
		t.Errorf("EU2AU: UDT (%.1f) not ≫ TCP (%.2f)", udtAU/mbps, tcpAU/mbps)
	}

	// DATA tracks the better protocol everywhere (within a ramp-up
	// allowance), the paper's headline result.
	for _, setup := range []string{"Local", "EU-VPC", "EU2US", "EU2AU"} {
		best := math.Max(
			fig9Cell(t, rows, setup, core.TCP).MeanThroughput,
			fig9Cell(t, rows, setup, core.UDT).MeanThroughput,
		)
		dataT := fig9Cell(t, rows, setup, core.DATA).MeanThroughput
		if dataT < 0.5*best {
			t.Errorf("%s: DATA %.2f MB/s below half of best single protocol %.2f",
				setup, dataT/mbps, best/mbps)
		}
	}

	// Bookkeeping sanity.
	for _, r := range rows {
		if r.Runs < 10 {
			t.Errorf("%s/%v ran %d times, want ≥10", r.Setup, r.Proto, r.Runs)
		}
		if r.CI95 < 0 {
			t.Errorf("negative CI in %+v", r)
		}
	}
}

func TestRunTransferUnsupportedProto(t *testing.T) {
	if _, err := RunTransfer(netsim.SetupEUVPC, core.UDP, 1<<20, 1); err == nil {
		t.Fatal("UDP transfer accepted (figure 9 has no UDP series)")
	}
}

// --- Figure 8 -------------------------------------------------------------------

func TestFigure8Shape(t *testing.T) {
	rows, err := Figure8(Fig8Options{
		Pings:  15,
		Warmup: 20 * time.Second,
		Setups: []netsim.PathConfig{netsim.SetupEU2US},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(scenario string) Fig8Row {
		for _, r := range rows {
			if r.Scenario == scenario {
				return r
			}
		}
		t.Fatalf("scenario %q missing", scenario)
		return Fig8Row{}
	}

	base := get("TCP pings only").MeanRTT
	tcpData := get("TCP ping + TCP data").MeanRTT
	udtData := get("TCP ping + UDT data").MeanRTT
	dataData := get("TCP ping + DATA data").MeanRTT

	if base < netsim.SetupEU2US.RTT || base > 2*netsim.SetupEU2US.RTT {
		t.Errorf("idle ping RTT %v implausible for 155 ms path", base)
	}
	// TCP data on the shared connection inflates control RTT by orders
	// of magnitude.
	if tcpData < 20*base {
		t.Errorf("TCP+TCP RTT %v not ≫ idle %v", tcpData, base)
	}
	// Data on UDT barely disturbs TCP pings.
	if udtData > 3*base {
		t.Errorf("TCP ping + UDT data RTT %v should stay near base %v", udtData, base)
	}
	// DATA sits between the extremes but far below TCP-on-TCP (the
	// paper: still two orders of magnitude better).
	if dataData >= tcpData/5 {
		t.Errorf("DATA RTT %v not well below TCP-on-TCP %v", dataData, tcpData)
	}
	if dataData < base {
		t.Errorf("DATA RTT %v below idle baseline %v", dataData, base)
	}
}

// TestFigure8EverySetup runs figure 8 on its default setups, briefly:
// every setup × scenario cell must produce a row of answered pings.
func TestFigure8EverySetup(t *testing.T) {
	rows, err := Figure8(Fig8Options{Pings: 5, Warmup: 5 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(netsim.Setups()) * len(Figure8Scenarios()); len(rows) != want {
		t.Fatalf("rows = %d, want %d (setups × scenarios)", len(rows), want)
	}
	for _, r := range rows {
		if r.Pings != 5 || r.MeanRTT <= 0 {
			t.Errorf("%s/%s: %d pings, mean RTT %v", r.Setup, r.Scenario, r.Pings, r.MeanRTT)
		}
	}
}

// --- Figures 2 and 4–6 ------------------------------------------------------------

func tailMean(points []LearnerPoint, n int, f func(LearnerPoint) float64) float64 {
	if n > len(points) {
		n = len(points)
	}
	sum := 0.0
	for _, p := range points[len(points)-n:] {
		sum += f(p)
	}
	return sum / float64(n)
}

func TestFigure6ApproxConvergesToTCP(t *testing.T) {
	series, err := Figure6(3)
	if err != nil {
		t.Fatal(err)
	}
	var approx, tcp, udt LearnerSeries
	for _, s := range series {
		switch s.Label {
		case "approx/Pattern":
			approx = s
		case "TCP":
			tcp = s
		case "UDT":
			udt = s
		}
	}
	if len(approx.Points) != 120 {
		t.Fatalf("approx series has %d points, want 120", len(approx.Points))
	}
	tcpRate := tailMean(tcp.Points, 30, func(p LearnerPoint) float64 { return p.Throughput })
	udtRate := tailMean(udt.Points, 30, func(p LearnerPoint) float64 { return p.Throughput })
	if tcpRate < 5*udtRate {
		t.Fatalf("environment broken: TCP %.1f not ≫ UDT %.1f MB/s",
			tcpRate/mbps, udtRate/mbps)
	}
	gotRate := tailMean(approx.Points, 30, func(p LearnerPoint) float64 { return p.Throughput })
	if gotRate < 0.7*tcpRate {
		t.Fatalf("approx learner tail throughput %.1f MB/s below 70%% of TCP reference %.1f",
			gotRate/mbps, tcpRate/mbps)
	}
	gotRatio := tailMean(approx.Points, 30, func(p LearnerPoint) float64 { return p.TrueRatio })
	if gotRatio > -0.6 {
		t.Fatalf("approx learner tail ratio %.2f, want ≤ -0.6 (near pure TCP)", gotRatio)
	}
}

func TestFigure5ModelConvergesButSlower(t *testing.T) {
	series, err := Figure5(3)
	if err != nil {
		t.Fatal(err)
	}
	var model LearnerSeries
	for _, s := range series {
		if s.Label == "model/Pattern" {
			model = s
		}
	}
	gotRatio := tailMean(model.Points, 30, func(p LearnerPoint) float64 { return p.TrueRatio })
	if gotRatio > -0.5 {
		t.Fatalf("model learner tail ratio %.2f, want ≤ -0.5", gotRatio)
	}
}

func TestFigure4MatrixSlowerThanApprox(t *testing.T) {
	// The paper's claim is comparative: within the same budget the
	// matrix backend explores far less effectively than the model-based
	// ones. Compare time-to-reach a TCP-heavy ratio.
	mat, err := Figure4(3)
	if err != nil {
		t.Fatal(err)
	}
	app, err := Figure6(3)
	if err != nil {
		t.Fatal(err)
	}
	reach := func(series []LearnerSeries, label string) int {
		for _, s := range series {
			if s.Label != label {
				continue
			}
			for i, p := range s.Points {
				if p.Target <= -0.6 {
					return i + 1
				}
			}
			return len(s.Points) + 1
		}
		t.Fatalf("series %q missing", label)
		return 0
	}
	matrixT := reach(mat, "matrix/Pattern")
	approxT := reach(app, "approx/Pattern")
	if approxT > matrixT {
		t.Fatalf("approx reached TCP-heavy ratio after %d s, matrix after %d s; want approx ≤ matrix",
			approxT, matrixT)
	}
	t.Logf("seconds to reach balance ≤ -0.6: approx=%d matrix=%d", approxT, matrixT)
}

func TestFigure2PatternVsRandom(t *testing.T) {
	series, err := Figure2(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4", len(series))
	}
	var pattern, random LearnerSeries
	for _, s := range series {
		switch s.Label {
		case "approx/Pattern":
			pattern = s
		case "approx/Random":
			random = s
		}
	}
	if len(pattern.Points) != 60 || len(random.Points) != 60 {
		t.Fatal("series length wrong")
	}
	// Both eventually achieve comparable performance (the paper: "both
	// implementations eventually achieve the same performance").
	pRate := tailMean(pattern.Points, 15, func(p LearnerPoint) float64 { return p.Throughput })
	rRate := tailMean(random.Points, 15, func(p LearnerPoint) float64 { return p.Throughput })
	if rRate < 0.4*pRate {
		t.Fatalf("random-PSP learner tail %.1f MB/s far below pattern %.1f",
			rRate/mbps, pRate/mbps)
	}
}

func TestLearnerRunValidation(t *testing.T) {
	if _, err := LearnerRun(LearnerRunConfig{Ratio: RatioPolicyKind(99)}); err == nil {
		t.Fatal("unknown ratio policy accepted")
	}
	if _, err := LearnerRun(LearnerRunConfig{Ratio: StaticTCP, Selection: SelectionPolicyKind(99)}); err == nil {
		t.Fatal("unknown selection policy accepted")
	}
}

func TestRatioAndSelectionKindStrings(t *testing.T) {
	for _, k := range []RatioPolicyKind{StaticTCP, StaticUDT, LearnerMatrix, LearnerModel, LearnerApprox, RatioPolicyKind(42)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if PatternPolicy.String() != "Pattern" || RandomPolicy.String() != "Random" {
		t.Fatal("selection kind strings wrong")
	}
}

// --- extension: RTT sweep -------------------------------------------------------

func TestThroughputSweepCrossover(t *testing.T) {
	rows, err := ThroughputSweep(
		[]time.Duration{3 * time.Millisecond, 50 * time.Millisecond, 320 * time.Millisecond},
		Fig9Options{Size: 96 << 20, MinRuns: 3, MaxRuns: 5, RSETarget: 0.3, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	get := func(rtt time.Duration, proto core.Transport) float64 {
		for _, r := range rows {
			if r.RTT == rtt && r.Proto == proto {
				return r.MeanThroughput
			}
		}
		t.Fatalf("missing cell %v/%v", rtt, proto)
		return 0
	}
	// TCP wins at 3 ms, loses at 50 ms and beyond: the crossover the
	// sweep exists to locate.
	if get(3*time.Millisecond, core.TCP) < get(3*time.Millisecond, core.UDT) {
		t.Fatal("TCP should win at 3 ms")
	}
	if get(320*time.Millisecond, core.TCP) > get(320*time.Millisecond, core.UDT) {
		t.Fatal("UDT should win at 320 ms")
	}
	// In the mid band the DATA mix can exceed both pure protocols
	// (aggregated bandwidth); at minimum it must not be worse than half
	// the best.
	best := mathMax(get(50*time.Millisecond, core.TCP), get(50*time.Millisecond, core.UDT))
	if get(50*time.Millisecond, core.DATA) < 0.5*best {
		t.Fatal("DATA below half of best in the mid band")
	}
}

func mathMax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestSweepPathShape(t *testing.T) {
	lan := SweepPath(100 * time.Microsecond)
	if lan.UDPPolicerRate != 0 || lan.UDTMaxRate == 0 {
		t.Fatal("sub-millisecond sweep path should look like loopback")
	}
	wan := SweepPath(100 * time.Millisecond)
	if wan.LossRate < 1e-5 || wan.UDPPolicerRate == 0 {
		t.Fatal("WAN sweep path should have loss and a policer")
	}
	if err := wan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(DefaultSweepRTTs()) < 5 {
		t.Fatal("sweep axis too sparse")
	}
}
