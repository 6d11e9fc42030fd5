package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"stms/internal/stats"
	"stms/internal/trace"
)

// samplingConfig is the small configuration the sampling properties run
// at: large enough that every window gets a meaningful measurement
// stratum, small enough that 100-seed sweeps stay in seconds.
func samplingConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 2_000
	cfg.MeasureRecords = 8_000
	return cfg
}

func stmsSpec() PrefSpec { return PrefSpec{Kind: STMS, SampleProb: 1} }

// TestSampledExactWhenKIsOne proves the K ≤ 1 delegation contract:
// Sample returns bit-identical Results to the exact
// serial drivers for every trace substrate — plain workloads, all
// stress scenarios, and a materialized tape — with the intervals
// degenerating to points at the exact values.
func TestSampledExactWhenKIsOne(t *testing.T) {
	cfg := samplingConfig()
	ps := stmsSpec()
	ctx := context.Background()

	for _, name := range []string{"web-apache", "sci-ocean"} {
		sp, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := run1(ctx, cfg, FromSpec(sp), ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1} {
			sr, err := Sample(ctx, cfg, FromSpec(sp), ps, Sampling{Windows: k})
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			checkExactSampled(t, name, sr, exact)
		}
	}
	for _, scn := range trace.Scenarios() {
		exact, err := run1(ctx, cfg, FromScenario(scn), ps)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Sample(ctx, cfg, FromScenario(scn), ps, Sampling{Windows: 1})
		if err != nil {
			t.Fatalf("scenario %s: %v", scn.Name, err)
		}
		checkExactSampled(t, "scenario "+scn.Name, sr, exact)
	}
	sp, err := trace.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
	exact, err := run1(ctx, cfg, FromTape(tape), ps)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Sample(ctx, cfg, FromTape(tape), ps, Sampling{Windows: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExactSampled(t, "tape oltp-tpcc", sr, exact)
}

func checkExactSampled(t *testing.T, what string, sr SampledResults, exact Results) {
	t.Helper()
	if !sr.Exact {
		t.Errorf("%s: Exact flag not set on a K<=1 run", what)
	}
	if !reflect.DeepEqual(sr.Results, exact) {
		t.Errorf("%s: K=1 sampled Results differ from the exact serial run:\nsampled %+v\nexact   %+v", what, sr.Results, exact)
	}
	for metric, ci := range map[string]stats.CI{
		"ipc": sr.CI.IPC, "mlp": sr.CI.MLP,
		"dram": sr.CI.DRAMUtil, "cov": sr.CI.Coverage,
	} {
		if ci.Lo != ci.Mean || ci.Hi != ci.Mean || ci.N != 1 {
			t.Errorf("%s: %s interval %+v is not a point estimate", what, metric, ci)
		}
	}
}

// TestWindowPlanPartition is the geometry property: for any warm span,
// measurement span and window count, the plan tiles [W, W+M) exactly —
// no gap, no overlap, every record measured once — and each window's
// warming stages partition its full trace prefix [0, start).
func TestWindowPlanPartition(t *testing.T) {
	cases := []struct {
		warm, measure uint64
		k             int
	}{
		{2000, 8000, 1}, {2000, 8000, 2}, {2000, 8000, 3}, {2000, 8000, 7},
		{2000, 8000, 8}, {0, 5000, 4}, {1, 9999, 13}, {100000, 17, 5},
		{4000, 96000, 16}, {2000, 10, 64}, // K > M clamps to M windows
	}
	for _, tc := range cases {
		cfg := samplingConfig()
		cfg.WarmRecords = tc.warm
		cfg.MeasureRecords = tc.measure
		for _, smp := range []Sampling{
			{Windows: tc.k},
			{Windows: tc.k, Warmup: 500, FuncWarmup: 1500},
			{Windows: tc.k, Warmup: 3 * tc.warm},
		} {
			norm := smp.normalized(cfg)
			plan := windowPlan(cfg, norm)
			if want := min(uint64(norm.Windows), tc.measure); uint64(len(plan)) != want {
				t.Fatalf("K=%d W=%d M=%d: plan has %d windows, want %d", tc.k, tc.warm, tc.measure, len(plan), want)
			}
			next := tc.warm
			var total uint64
			for w, g := range plan {
				if g.start != next {
					t.Fatalf("K=%d W=%d M=%d window %d starts at %d, want %d (gap or overlap)", tc.k, tc.warm, tc.measure, w, g.start, next)
				}
				if g.length == 0 {
					t.Fatalf("K=%d W=%d M=%d window %d measures nothing", tc.k, tc.warm, tc.measure, w)
				}
				if g.warm+g.funcWarm+g.metaWarm != g.start {
					t.Fatalf("K=%d W=%d M=%d window %d warming stages %d+%d+%d do not cover prefix %d", tc.k, tc.warm, tc.measure, w, g.warm, g.funcWarm, g.metaWarm, g.start)
				}
				next = g.start + g.length
				total += g.length
			}
			if total != tc.measure {
				t.Fatalf("K=%d W=%d M=%d: windows measure %d records, want %d", tc.k, tc.warm, tc.measure, total, tc.measure)
			}
		}
	}
}

// TestSampledWindowsTileRecordStream is the runtime half of the
// partition property: thanks to the warm-boundary barrier every window
// measures exactly its planned records — length × cores, no skew loss —
// so the stitched run counts every measured record exactly once,
// across window counts and seeds.
func TestSampledWindowsTileRecordStream(t *testing.T) {
	sp, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	ps := stmsSpec()
	for _, k := range []int{2, 3, 8} {
		for _, seed := range []uint64{0, 7} {
			cfg := samplingConfig()
			cfg.Seed = seed
			sr, err := Sample(context.Background(), cfg, FromSpec(sp), ps, Sampling{Windows: k})
			if err != nil {
				t.Fatalf("K=%d seed=%d: %v", k, seed, err)
			}
			var sum uint64
			for _, w := range sr.Windows {
				if want := w.Len * uint64(cfg.Cores); w.Results.Records != want {
					t.Errorf("K=%d seed=%d window %d measured %d records, want %d", k, seed, w.Index, w.Results.Records, want)
				}
				sum += w.Results.Records
			}
			if want := cfg.MeasureRecords * uint64(cfg.Cores); sum != want || sr.Results.Records != want {
				t.Errorf("K=%d seed=%d: windows sum to %d records, stitched %d, want %d", k, seed, sum, sr.Results.Records, want)
			}
		}
	}
}

// TestSampledDeterministic proves the estimate is independent of
// goroutine scheduling: two runs of the same sampled configuration are
// deeply equal, windows included.
func TestSampledDeterministic(t *testing.T) {
	sp, err := trace.ByName("sci-ocean")
	if err != nil {
		t.Fatal(err)
	}
	cfg := samplingConfig()
	smp := Sampling{Windows: 4}
	a, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), smp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), smp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sampled estimate depends on scheduling:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestSampledCIContainment is the statistical acceptance test: across
// 100 deterministic seeds of a long stationary workload, each metric's
// 95% interval must contain the exact serial value in at least 93
// trials (the nominal miss rate is 5; 93 leaves slack for the
// warm-state approximation without letting a systematic bias pass).
func TestSampledCIContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("100-seed statistical sweep")
	}
	sp, err := trace.ByName("sci-ocean")
	if err != nil {
		t.Fatal(err)
	}
	ps := stmsSpec()
	const trials = 100
	type metric struct {
		name  string
		exact func(Results) float64
		ci    func(SampledCI) stats.CI
	}
	metrics := []metric{
		{"ipc", func(r Results) float64 { return r.IPC }, func(c SampledCI) stats.CI { return c.IPC }},
		{"mlp", func(r Results) float64 { return r.MLP }, func(c SampledCI) stats.CI { return c.MLP }},
		{"dram_util", func(r Results) float64 { return r.DRAMUtil }, func(c SampledCI) stats.CI { return c.DRAMUtil }},
		{"coverage", func(r Results) float64 { return r.Coverage() }, func(c SampledCI) stats.CI { return c.Coverage }},
	}
	contained := make([]int, len(metrics))
	for seed := 0; seed < trials; seed++ {
		cfg := samplingConfig()
		cfg.Seed = uint64(seed)
		exact, err := run1(context.Background(), cfg, FromSpec(sp), ps)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := Sample(context.Background(), cfg, FromSpec(sp), ps, Sampling{Windows: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range metrics {
			ci := m.ci(sr.CI)
			if v := m.exact(exact); v >= ci.Lo && v <= ci.Hi {
				contained[i]++
			}
		}
	}
	for i, m := range metrics {
		t.Logf("%s: exact value inside the 95%% CI in %d/%d trials", m.name, contained[i], trials)
		if contained[i] < 93 {
			t.Errorf("%s: interval contained the exact value in only %d/%d trials, want >= 93", m.name, contained[i], trials)
		}
	}
}

// TestSampledCIWidthShrinks checks the error bars behave like error
// bars: quadrupling the window count shrinks each interval (the
// standard error falls ~1/sqrt(K) and the t quantile tightens with the
// extra degrees of freedom).
func TestSampledCIWidthShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-K sweep")
	}
	sp, err := trace.ByName("sci-ocean")
	if err != nil {
		t.Fatal(err)
	}
	width := func(ci stats.CI) float64 { return ci.Hi - ci.Lo }
	for _, seed := range []uint64{1, 2, 3} {
		cfg := samplingConfig()
		cfg.Seed = seed
		narrow, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), Sampling{Windows: 16})
		if err != nil {
			t.Fatal(err)
		}
		wide, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), Sampling{Windows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if w16, w4 := width(narrow.CI.IPC), width(wide.CI.IPC); w16 >= w4 {
			t.Errorf("seed %d: IPC interval width %.4g at K=16 not below %.4g at K=4", seed, w16, w4)
		}
	}
}

// TestSampledManyWindows runs K = 2 × GOMAXPROCS windows — more
// goroutines than processors — as the concurrency stressor the race
// detector sweeps in CI.
func TestSampledManyWindows(t *testing.T) {
	sp, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * runtime.GOMAXPROCS(0)
	if k < 4 {
		k = 4
	}
	if k > 32 {
		k = 32
	}
	cfg := samplingConfig()
	sr, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), Sampling{Windows: k})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Windows) != k {
		t.Fatalf("got %d windows, want %d", len(sr.Windows), k)
	}
	if want := cfg.MeasureRecords * uint64(cfg.Cores); sr.Results.Records != want {
		t.Fatalf("stitched %d records, want %d", sr.Results.Records, want)
	}
}

// TestSampledCancelLeavesNoGoroutines cancels a sampled run mid-flight
// and verifies every window goroutine winds down.
func TestSampledCancelLeavesNoGoroutines(t *testing.T) {
	sp, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	cfg := samplingConfig()
	cfg.MeasureRecords = 64_000 // long enough that cancellation lands mid-run
	_, err = Sample(ctx, cfg, FromSpec(sp), stmsSpec(), Sampling{Windows: 4})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSampledTapeAndScenario covers the other two substrates at K > 1:
// the sampled estimate over a tape is identical to the sampled estimate
// over the spec that recorded it (same identity, same windows), and a
// scenario-backed sampled run is deterministic and tiles its records.
func TestSampledTapeAndScenario(t *testing.T) {
	cfg := samplingConfig()
	ps := stmsSpec()
	smp := Sampling{Windows: 3}
	sp, err := trace.ByName("sci-ocean")
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := Sample(context.Background(), cfg, FromSpec(sp), ps, smp)
	if err != nil {
		t.Fatal(err)
	}
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
	fromTape, err := Sample(context.Background(), cfg, FromTape(tape), ps, smp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSpec, fromTape) {
		t.Errorf("sampled estimate differs across substrates:\nspec %+v\ntape %+v", fromSpec, fromTape)
	}

	scn, err := trace.ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Sample(context.Background(), cfg, FromScenario(scn), ps, smp)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.MeasureRecords * uint64(cfg.Cores); sr.Results.Records != want {
		t.Errorf("scenario sampled run measured %d records, want %d", sr.Results.Records, want)
	}
}

// TestSampledRejects covers the error surface: bad confidence levels
// and non-snapshotable prefetcher variants.
func TestSampledRejects(t *testing.T) {
	cfg := samplingConfig()
	sp, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sample(context.Background(), cfg, FromSpec(sp), stmsSpec(), Sampling{Windows: 2, Confidence: 1.5}); err == nil {
		t.Error("confidence 1.5 accepted")
	}
	if _, err := Sample(context.Background(), cfg, FromSpec(sp), PrefSpec{Kind: TSE}, Sampling{Windows: 2}); err == nil {
		t.Error("non-snapshotable variant accepted for sampling")
	}
}

// TestSampledSpeedup is the wall-clock acceptance criterion: on a host
// with at least 4 processors, a sampled run at K = GOMAXPROCS must beat
// the exact serial run by at least 2x while every reported metric's
// exact value stays inside the 95% interval. The geometry matches the
// headline experiment (scripts/check_experiments.sh).
func TestSampledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("speedup needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	sp, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 4_000
	cfg.MeasureRecords = 96_000
	ps := stmsSpec()
	k := runtime.GOMAXPROCS(0)
	if k > 16 {
		k = 16
	}
	t0 := time.Now()
	exact, err := run1(context.Background(), cfg, FromSpec(sp), ps)
	if err != nil {
		t.Fatal(err)
	}
	dExact := time.Since(t0)
	t0 = time.Now()
	sr, err := Sample(context.Background(), cfg, FromSpec(sp), ps, Sampling{Windows: k})
	if err != nil {
		t.Fatal(err)
	}
	dSampled := time.Since(t0)
	speedup := dExact.Seconds() / dSampled.Seconds()
	t.Logf("K=%d: exact %v, sampled %v, speedup %.2fx; IPC %.4f in [%.4f, %.4f] (exact %.4f)",
		k, dExact.Round(time.Millisecond), dSampled.Round(time.Millisecond), speedup,
		sr.CI.IPC.Mean, sr.CI.IPC.Lo, sr.CI.IPC.Hi, exact.IPC)
	for name, pair := range map[string][2]float64{
		"ipc":       {exact.IPC, 0},
		"mlp":       {exact.MLP, 1},
		"dram_util": {exact.DRAMUtil, 2},
		"coverage":  {exact.Coverage(), 3},
	} {
		cis := []stats.CI{sr.CI.IPC, sr.CI.MLP, sr.CI.DRAMUtil, sr.CI.Coverage}
		ci := cis[int(pair[1])]
		if pair[0] < ci.Lo || pair[0] > ci.Hi {
			t.Errorf("%s: exact %.5f outside the 95%% interval [%.5f, %.5f]", name, pair[0], ci.Lo, ci.Hi)
		}
	}
	if speedup < 2 {
		t.Errorf("sampled run only %.2fx faster than exact serial, want >= 2x", speedup)
	}
}

// sampleErrPct is the worst relative gap between the sampled estimate
// and the exact run across the four reported metrics, in percent.
func sampleErrPct(exact Results, sr SampledResults) float64 {
	worst := 0.0
	for _, p := range [][2]float64{
		{exact.IPC, sr.Results.IPC},
		{exact.MLP, sr.Results.MLP},
		{exact.DRAMUtil, sr.Results.DRAMUtil},
		{exact.Coverage(), sr.Results.Coverage()},
	} {
		if p[0] == 0 {
			continue
		}
		if e := 100 * abs(p[1]-p[0]) / abs(p[0]); e > worst {
			worst = e
		}
	}
	return worst
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSampledCloseToExact bounds the estimate error itself (not just
// the interval): at the default geometry the stitched estimate stays
// within a few percent of the exact run on every metric.
func TestSampledCloseToExact(t *testing.T) {
	sp, err := trace.ByName("sci-ocean")
	if err != nil {
		t.Fatal(err)
	}
	cfg := samplingConfig()
	ps := stmsSpec()
	exact, err := run1(context.Background(), cfg, FromSpec(sp), ps)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Sample(context.Background(), cfg, FromSpec(sp), ps, Sampling{Windows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if e := sampleErrPct(exact, sr); e > 5 {
		t.Errorf("worst metric error %.2f%% vs exact, want <= 5%%", e)
	} else {
		t.Logf("worst metric error %.2f%% vs exact", e)
	}
}
