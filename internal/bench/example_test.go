package bench_test

import (
	"fmt"
	"log"
	"time"

	"github.com/kompics/kompicsmessaging-go/internal/bench"
	"github.com/kompics/kompicsmessaging-go/internal/netsim"
)

// The Sarsa(λ) learner (quadratic value approximation, as in figure 6)
// shifts a data stream between TCP and UDT on the paper's learner
// environment, a 100 MB/s, 20 ms-RTT link where TCP dominates. It
// converges to pure TCP within seconds of virtual time; the 60-second run
// executes in milliseconds.
func ExampleLearnerRun() {
	series, err := bench.LearnerRun(bench.LearnerRunConfig{
		Path:     netsim.SetupLearner,
		Ratio:    bench.LearnerApprox,
		Duration: 60 * time.Second,
		Seed:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  t   throughput   true-ratio  target   ε")
	for i, p := range series.Points {
		if (i+1)%10 != 0 {
			continue
		}
		fmt.Printf("%3ds   %7.1f MB/s   %+5.2f      %+5.2f   %.2f\n",
			int(p.T.Seconds()), p.Throughput/(1<<20), p.TrueRatio, p.Target, p.Epsilon)
	}
	last := series.Points[len(series.Points)-1]
	fmt.Printf("converged to balance %+.1f (−1 = pure TCP) at %.1f MB/s\n",
		last.Target, last.Throughput/(1<<20))
	// Output:
	//   t   throughput   true-ratio  target   ε
	//  10s      79.0 MB/s   -0.80      -0.80   0.21
	//  20s      99.9 MB/s   -0.80      -0.80   0.11
	//  30s     100.0 MB/s   -0.80      -0.80   0.10
	//  40s      99.9 MB/s   -0.80      -0.80   0.10
	//  50s     100.0 MB/s   -0.80      -0.80   0.10
	//  60s      99.9 MB/s   -0.80      -0.80   0.10
	// converged to balance -0.8 (−1 = pure TCP) at 99.9 MB/s
}
