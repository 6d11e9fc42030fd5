// Phase-change walkthrough: what happens to off-chip meta-data when the
// working set flips out from under it — and comes back.
//
// The built-in "phase-flip" scenario runs Apache, switches to OLTP
// mid-run, then returns to Apache. The prefetcher's meta-data recorded
// in the first web phase is useless through the OLTP phase (every
// lookup misses — pure staleness) but becomes valid again the moment
// the working set returns: the library engine keys stream content by
// working set, so the "web-return" phase replays literally the same
// streams. Per-phase result windows make the dip and the recovery
// directly visible. A custom drift scenario is built inline for
// contrast: gradual change, no cliff.
//
//	go run ./examples/phase-change
package main

import (
	"context"
	"fmt"
	"log"

	"stms"
)

func main() {
	lab, err := stms.New(
		stms.WithScale(0.125),
		stms.WithSeed(42),
		stms.WithWindows(40_000, 80_000),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Built-in scenario names plan exactly like workload names.
	fmt.Println("simulating the phase-flip scenario (web → oltp → web)...")
	plan := lab.Plan([]string{"phase-flip"}, []stms.PrefSpec{
		{Kind: stms.Ideal},
		{Kind: stms.STMS, SampleProb: 0.125},
	}, stms.WithLabels("ideal", "stms"))
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	ideal, practical := m.At(0, 0).Res, m.At(0, 1).Res

	cores := uint64(lab.BaseConfig().Cores)
	fmt.Printf("\n%-12s %12s %10s %10s %10s\n", "phase", "records/core", "ideal cov", "stms cov", "stms IPC")
	for i := range practical.Phases {
		iw, sw := &ideal.Phases[i], &practical.Phases[i]
		fmt.Printf("%-12s %12d %9.1f%% %9.1f%% %10.3f\n",
			sw.Name, sw.Records/cores, iw.Coverage()*100, sw.Coverage()*100, sw.IPC)
	}
	fmt.Println("\nThe oltp phase starts cold (both prefetchers lose their streams),")
	fmt.Println("and web-return recovers ahead of the first web phase: the working")
	fmt.Println("set is the one the meta-data already describes.")

	// Custom scenarios compose from the public combinators; here a
	// gradual drift of Apache toward a noisy endpoint, for contrast
	// with the abrupt flip above.
	apache, err := stms.Workload("web-apache")
	if err != nil {
		log.Fatal(err)
	}
	noisy := apache
	noisy.NoiseProb = 0.4
	noisy.NoiseInChase = 0.3
	drift := stms.Drift("apache-goes-noisy", apache, noisy, 6)

	fmt.Println("\nsimulating a custom gradual-drift scenario for contrast...")
	dm, err := lab.Run(context.Background(), lab.PlanScenarios(
		[]stms.Scenario{drift},
		[]stms.PrefSpec{{Kind: stms.STMS, SampleProb: 0.125}},
	))
	if err != nil {
		log.Fatal(err)
	}
	res := dm.At(0, 0).Res
	fmt.Printf("\n%-12s %12s %10s\n", "phase", "records/core", "stms cov")
	for i := range res.Phases {
		w := &res.Phases[i]
		fmt.Printf("%-12s %12d %9.1f%%\n", w.Name, w.Records/cores, w.Coverage()*100)
	}
	fmt.Println("\nDrift degrades coverage smoothly — the working set never flips,")
	fmt.Println("so meta-data ages gradually instead of dying at a boundary.")
}
