// Command benchmark is the repository's end-to-end benchmark: two real
// core.Network nodes in one process, talking over 127.0.0.1 (loopback, not a
// real link), driven by the benchmark's own components, with every layer
// measured from outside through its public API. README.md has the metric
// catalogue; BENCHMARK.json at the repository root is the harness contract.
//
//	go run ./benchmark -seed 1                       # whole suite, both passes
//	go run ./benchmark -workload ctrl_rtt_tcp -trace 0
//	go run ./benchmark -selfcheck                    # suite twice, A/A
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// endToEndBounds is the share by which each end-to-end metric may get
// worse; it mirrors BENCHMARK.json (bench_test.go holds the two together)
// and is what -selfcheck compares an A/A pair against.
var endToEndBounds = map[string]float64{
	"rtt_p50_us": 0.25, "rtt_p99_us": 0.25, "msg_rate_kps": 0.25,
	"goodput_mib_s": 0.25, "cpu_us_per_msg": 0.25, "setup_s": 0.25,
}

// higherIsBetter lists the end-to-end metrics that are rates.
var higherIsBetter = map[string]bool{"msg_rate_kps": true, "goodput_mib_s": true}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all five)")
	seed := flag.Int64("seed", 1, "seed of the generated payloads")
	seconds := flag.Float64("seconds", 15, "measured seconds per invocation")
	trace := flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics; default both")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the two (A/A)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	code, err := run(*workload, *seed, *seconds, *trace, *selfcheck, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(workload string, seed int64, seconds float64, trace int, selfcheck bool, out io.Writer) (int, error) {
	runtime.GOMAXPROCS(2) // the same on every machine; the two nodes share them
	if seconds <= 0 || trace < -1 || trace > 1 {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	specs := workloads
	if workload != "" {
		spec := workloadByName(workload)
		if spec == nil {
			return 2, fmt.Errorf("unknown workload %q", workload)
		}
		specs = []workloadSpec{*spec}
	}
	outDir, err := traceDir()
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, envStamp())

	suite := func() (*result, error) {
		total := &result{Correct: true, Metrics: map[string]metric{}}
		for i := range specs {
			cfg := runConfig{spec: &specs[i], seed: seed, seconds: seconds, outDir: outDir, log: out}
			for pass, fn := range []func(runConfig) (*result, error){runUntraced, runTraced} {
				if trace >= 0 && trace != pass {
					continue
				}
				res, err := fn(cfg)
				if err != nil {
					return nil, err
				}
				total.Correct = total.Correct && res.Correct
				total.Attempted += res.Attempted
				total.Failed += res.Failed
				for name, m := range res.Metrics {
					total.Metrics[metricKey(specs, i, name)] = m
				}
			}
		}
		return total, nil
	}

	first, err := suite()
	if err != nil {
		return 2, err
	}
	code := 0
	if selfcheck {
		second, err := suite()
		if err != nil {
			return 2, err
		}
		first.Correct = first.Correct && second.Correct
		if !compareRuns(specs, first, second, out) {
			code = 1
		}
	}
	if !first.Correct {
		code = 1
	}
	line, err := json.Marshal(first)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, string(line))
	return code, nil
}

// metricKey is a metric's name in the final JSON: bare when one workload
// ran, as the harness wants it, prefixed with the workload's name otherwise.
func metricKey(specs []workloadSpec, i int, name string) string {
	if len(specs) == 1 {
		return name
	}
	return specs[i].name + "." + name
}

// compareRuns prints, for every end-to-end metric of every workload run, how
// far the second run is from the first beside the metric's bound, and
// reports whether all of them stayed inside.
func compareRuns(specs []workloadSpec, a, b *result, out io.Writer) bool {
	ok := true
	fmt.Fprintln(out, "selfcheck (A/A): relative difference of the second run, positive = worse")
	for i := range specs {
		for _, d := range endToEndMetrics {
			name := metricKey(specs, i, d.name)
			ma, oka := a.Metrics[name]
			mb, okb := b.Metrics[name]
			if !oka || !okb || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if higherIsBetter[d.name] {
				worse = -worse
			}
			bound := endToEndBounds[d.name]
			verdict := "ok"
			if worse > bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(out, "  %-40s %12.5g -> %12.5g  %+7.2f %%  (bound %2.0f %%)  %s\n",
				name, ma.Value, mb.Value, 100*worse, 100*bound, verdict)
		}
	}
	return ok
}

// traceDir is benchmark/out beside this program's sources, found from the
// working directory: the repository root (go run ./benchmark) or the package
// directory (go test).
func traceDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(dir, "bench_test.go")); err == nil {
			return filepath.Join(dir, "out"), nil
		}
	}
	return "", fmt.Errorf("run from the repository root or the benchmark directory")
}

func envStamp() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s link=loopback(127.0.0.1, not a real link)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel)
}
