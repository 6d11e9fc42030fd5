package stms_test

// Runnable examples for the package's three entry journeys: the Lab
// quickstart, building a phase-structured scenario, and tape replay.
// go test executes them (each prints deterministic output), so the
// documented workflows cannot rot.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"reflect"

	"stms"
)

// Example runs the quickstart: one Lab session, one 1×3 run matrix
// (baseline, idealized TMS, practical STMS) on a tiny window. Results
// are deterministic, so the derived facts below always hold.
func Example() {
	lab, err := stms.New(
		stms.WithScale(0.0625),
		stms.WithSeed(42),
		stms.WithWindows(2_000, 4_000),
	)
	if err != nil {
		log.Fatal(err)
	}
	plan := lab.Plan([]string{"web-apache"}, []stms.PrefSpec{
		{Kind: stms.None},
		{Kind: stms.Ideal},
		{Kind: stms.STMS, SampleProb: 0.125},
	})
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	base, ideal, practical := m.At(0, 0).Res, m.At(0, 1).Res, m.At(0, 2).Res
	fmt.Println("cells simulated:", len(m.Cells))
	fmt.Println("ideal covers misses:", ideal.Coverage() > 0)
	fmt.Println("stms covers misses:", practical.Coverage() > 0)
	fmt.Println("stms coverage below ideal:", practical.Coverage() <= ideal.Coverage())
	fmt.Println("baseline has an IPC:", base.IPC > 0)
	// Output:
	// cells simulated: 3
	// ideal covers misses: true
	// stms covers misses: true
	// stms coverage below ideal: true
	// baseline has an IPC: true
}

// Example_scenario builds a phase-structured scenario with the
// combinators, round-trips it through the versioned JSON format, and
// runs it: per-phase result windows come back alongside the whole-run
// numbers.
func Example_scenario() {
	apache, err := stms.Workload("web-apache")
	if err != nil {
		log.Fatal(err)
	}
	oltp, err := stms.Workload("oltp-db2")
	if err != nil {
		log.Fatal(err)
	}
	flip := stms.Sequence("my-flip",
		stms.Phase{Name: "web", Frac: 0.4, Spec: apache},
		stms.Phase{Name: "oltp", Spec: oltp},
	)

	var blob bytes.Buffer
	fmt.Fprintf(&blob, `{"stms_scenario": 1, "name": %q, "phases": [`+
		`{"name": "web", "frac": 0.4, "spec": %s},`+
		`{"name": "oltp", "spec": %s}]}`,
		"my-flip", mustJSON(apache), mustJSON(oltp))
	parsed, err := stms.ParseScenario(&blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("JSON round trip preserves identity:", parsed.Key() == flip.Key())

	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = 0.0625, 42
	cfg.WarmRecords, cfg.MeasureRecords = 1_000, 2_000
	res, err := stms.Run(context.Background(), cfg, stms.FromScenario(flip), stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125})
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Phases {
		fmt.Printf("phase %s starts at record %d/core\n", w.Name, w.Start)
	}
	// Output:
	// JSON round trip preserves identity: true
	// phase web starts at record 0/core
	// phase oltp starts at record 1200/core
}

// Example_tapeReplay materializes a workload once as a columnar tape
// and replays it: the Results are bit-identical to live generation,
// which is what lets the Lab's run matrix share one tape across every
// variant cell.
func Example_tapeReplay() {
	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = 0.0625, 42
	cfg.WarmRecords, cfg.MeasureRecords = 1_000, 2_000

	spec, err := stms.Workload("oltp-db2")
	if err != nil {
		log.Fatal(err)
	}
	scaled := spec.Scaled(cfg.Scale)
	tape := stms.NewTape(scaled, cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)

	ps := stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}
	live, err := stms.Run(context.Background(), cfg, stms.FromSpec(spec), ps)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := stms.Run(context.Background(), cfg, stms.FromTape(tape), ps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tape replay bit-identical to live generation:",
		reflect.DeepEqual(live, replayed))
	fmt.Println("tape holds cores:", tape.Cores())
	// Output:
	// tape replay bit-identical to live generation: true
	// tape holds cores: 4
}

// Example_sampled splits one timed run into K concurrent measurement
// windows (DESIGN.md §13): the estimate comes back with per-metric
// 95% confidence intervals, the exact serial value lands inside them,
// and K=1 degenerates to the bit-identical exact run.
func Example_sampled() {
	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = 0.0625, 42
	cfg.WarmRecords, cfg.MeasureRecords = 2_000, 8_000
	spec, err := stms.Workload("web-apache")
	if err != nil {
		log.Fatal(err)
	}
	ps := stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}

	exact, err := stms.Run(context.Background(), cfg, stms.FromSpec(spec), ps)
	if err != nil {
		log.Fatal(err)
	}
	sr, err := stms.Sample(context.Background(), cfg, stms.FromSpec(spec), ps, stms.Sampling{Windows: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("windows measured:", len(sr.Windows))
	fmt.Println("flagged exact:", sr.Exact)
	fmt.Println("confidence level:", sr.CI.IPC.Level)
	fmt.Println("exact IPC inside the interval:", sr.CI.IPC.Contains(exact.IPC))
	fmt.Println("exact coverage inside the interval:", sr.CI.Coverage.Contains(exact.Coverage()))

	k1, err := stms.Sample(context.Background(), cfg, stms.FromSpec(spec), ps, stms.Sampling{Windows: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("K=1 flagged exact:", k1.Exact)
	fmt.Println("K=1 bit-identical to serial:", reflect.DeepEqual(k1.Results, exact))
	// Output:
	// windows measured: 4
	// flagged exact: false
	// confidence level: 0.95
	// exact IPC inside the interval: true
	// exact coverage inside the interval: true
	// K=1 flagged exact: true
	// K=1 bit-identical to serial: true
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return string(b)
}
