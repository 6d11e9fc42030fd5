// sampling-sweep reproduces Figure 8's trade-off on one workload: sweeping
// the probabilistic-update sampling probability from 100% down to 1%
// slashes index-maintenance traffic roughly in proportion, while coverage
// declines only gently — because temporal streams are either long (a later
// block's index entry finds them) or frequent (some occurrence gets
// sampled soon).
//
// The sweep is one plan: seven STMS columns differing only in sampling
// probability, executed in parallel over identical traces: every column
// generates the workload's records from the same seed, so each one sees
// exactly the same record stream.
//
// The sweep itself then demonstrates the other kind of sampling: the
// paper's knee point (12.5%) is re-estimated as a K-window sampled
// simulation (stms.WithSampling, DESIGN.md §13) and reported with 95%
// error bars next to the exact value the sweep just computed.
//
//	go run ./examples/sampling-sweep [workload]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"stms"
)

func main() {
	name := "oltp-oracle"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}

	lab, err := stms.New(stms.WithScale(0.125))
	if err != nil {
		log.Fatal(err)
	}

	probs := []float64{1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.01}
	prefs := make([]stms.PrefSpec, len(probs))
	for i, p := range probs {
		prefs[i] = stms.PrefSpec{Kind: stms.STMS, SampleProb: p}
	}
	plan := lab.Plan([]string{name}, prefs)
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintf(os.Stderr, "workloads: %v\n", stms.Workloads())
		os.Exit(1)
	}

	fmt.Printf("sweeping update sampling probability on %s\n\n", name)
	fmt.Printf("%9s %9s %12s %12s %12s\n", "sampling", "coverage", "update-ovh", "total-ovh", "accuracy")

	var covAt100 float64
	for col, p := range probs {
		r := m.At(0, col).Res
		ov := r.OverheadTraffic()
		acc := 0.0
		if r.Engine.Issued > 0 {
			acc = float64(r.Engine.FullHits+r.Engine.PartialHits) / float64(r.Engine.Issued)
		}
		if p == 1.0 {
			covAt100 = r.Coverage()
		}
		fmt.Printf("%8.1f%% %8.1f%% %12.3f %12.3f %11.1f%%\n",
			p*100, r.Coverage()*100, ov.Update, ov.Total(), acc*100)
	}

	fmt.Printf("\ncoverage at 100%% sampling was %.1f%%; the paper picks 12.5%% as the\n", covAt100*100)
	fmt.Println("knee: ~8x less update bandwidth for a few points of coverage (§5.5).")

	// Part two: sampled simulation of the knee point. A second session
	// opts every timed cell into a 4-window sampled estimate; its cell
	// memoizes separately from the exact one above and carries error
	// bars for each headline metric.
	const knee = 0.125
	smpLab, err := stms.New(stms.WithScale(0.125), stms.WithSampling(stms.Sampling{Windows: 4}))
	if err != nil {
		log.Fatal(err)
	}
	sm, err := smpLab.Run(context.Background(),
		smpLab.Plan([]string{name}, []stms.PrefSpec{{Kind: stms.STMS, SampleProb: knee}}))
	if err != nil {
		log.Fatal(err)
	}
	sr := sm.At(0, 0).Sampled
	exact := m.At(0, 3).Res // the 12.5% column of the sweep above
	fmt.Printf("\nK-window sampled estimate of the %.1f%% knee (4 windows, 95%% CI):\n", knee*100)
	fmt.Printf("  coverage %5.1f%% ± %.1f pts   (exact %5.1f%%, in CI: %v)\n",
		sr.CI.Coverage.Mean*100, sr.CI.Coverage.HalfWidth()*100,
		exact.Coverage()*100, sr.CI.Coverage.Contains(exact.Coverage()))
	fmt.Printf("  IPC      %6.3f ± %.3f      (exact %6.3f, in CI: %v)\n",
		sr.CI.IPC.Mean, sr.CI.IPC.HalfWidth(), exact.IPC, sr.CI.IPC.Contains(exact.IPC))
}
