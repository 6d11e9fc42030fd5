// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each BenchmarkFig*/BenchmarkTable* run executes the corresponding
// experiment end-to-end at a reduced scale and logs the same rows/series
// the paper reports; key scalars are attached as benchmark metrics.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Full-scale (slower, larger meta-data) numbers come from cmd/stms-bench.
package stms_test

import (
	"context"
	"strings"
	"testing"

	"stms"
	"stms/internal/expt"
	"stms/internal/sim"
	"stms/internal/stats"
	"stms/internal/trace"
)

// benchOptions is the reduced experiment scale used under `go test -bench`.
func benchOptions() expt.Options {
	o := expt.DefaultOptions()
	o.Scale = 0.0625
	o.Warm = 40_000
	o.Measure = 60_000
	return o
}

func logTable(b *testing.B, t *stats.Table) {
	b.Helper()
	b.Logf("\n%s", t)
}

func BenchmarkTable1SystemModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Table1()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig1LeftIndexEntries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig1Left()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig1RightPriorOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig1Right()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig4IdealPotential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig4()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkTable2MLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Table2()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig5HistorySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig5History()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig5IndexSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig5Index()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig6StreamLengths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig6Lengths()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig6DepthLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig6Depth()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig7TrafficBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig7()
		if i == 0 {
			logTable(b, t)
		}
	}
}

func BenchmarkFig8SamplingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		traffic, coverage := r.Fig8()
		if i == 0 {
			logTable(b, traffic)
			logTable(b, coverage)
		}
	}
}

func BenchmarkFig9PracticalVsIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.Fig9()
		if i == 0 {
			logTable(b, t)
			// Attach the headline ratio as a metric: STMS coverage as a
			// fraction of idealized TMS (paper: ~90%).
			if len(t.Rows) > 0 {
				last := t.Rows[len(t.Rows)-1]
				ratio := strings.TrimSuffix(last[len(last)-2], "%")
				b.Logf("headline coverage ratio (mean): %s%%", ratio)
			}
		}
	}
}

func BenchmarkPhaseSensitivitySuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.PhaseSensitivity()
		if i == 0 {
			logTable(b, t)
			ts := r.TapeStats()
			b.ReportMetric(float64(ts.Builds), "scenario-tapes")
			b.ReportMetric(float64(ts.Hits), "tape-hits")
		}
	}
}

// --- Micro-benchmarks of the simulation substrate ---

func BenchmarkTimedSimRecords(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 5_000
	cfg.MeasureRecords = 20_000
	spec, err := trace.ByName("web-apache")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var records uint64
	for i := 0; i < b.N; i++ {
		r := mustRun(b, cfg, sim.FromSpec(spec), sim.PrefSpec{Kind: sim.STMS})
		records += r.Records
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkFunctionalSimRecords(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 5_000
	cfg.MeasureRecords = 20_000
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var records uint64
	for i := 0; i < b.N; i++ {
		rs, err := sim.Run(context.Background(), cfg, sim.FromSpec(spec), []sim.PrefSpec{{Kind: sim.Ideal}}, sim.WithMode(sim.Functional))
		if err != nil {
			b.Fatal(err)
		}
		records += rs[0].Records
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTimedHotPath is the steady-state throughput benchmark of the
// event-driven simulator: one long STMS run per iteration (400k records
// over 4 cores), so per-run construction is amortized and the number
// tracks the per-record hot path — the target of the allocation-free
// engine/DRAM/MSHR/prefetch-buffer design. Records/sec counts every
// simulated record (warm-up included); run with -benchmem to see
// allocs/op.
func BenchmarkTimedHotPath(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 10_000
	cfg.MeasureRecords = 90_000
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		b.Fatal(err)
	}
	perRun := (cfg.WarmRecords + cfg.MeasureRecords) * uint64(cfg.Cores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, cfg, sim.FromSpec(spec), sim.PrefSpec{Kind: sim.STMS})
	}
	b.ReportMetric(float64(perRun)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTraceGen measures live generation: the per-record cost of
// the workload state machine plus its RNG draws.
func BenchmarkTraceGen(b *testing.B) {
	spec, err := trace.ByName("web-zeus")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	lib := trace.NewLibrary(spec, 1)
	gen := trace.NewGenerator(lib, 0, 1)
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&rec)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTapeReplay measures the columnar substrate: decoding the
// identical record stream from a materialized tape through a
// zero-allocation cursor (compare records/s against BenchmarkTraceGen).
func BenchmarkTapeReplay(b *testing.B) {
	spec, err := trace.ByName("web-zeus")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	tape := trace.NewTape(spec, 1, 1, 1_000_000)
	cur := tape.Cursor(0)
	var rec trace.Record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cur.Next(&rec) {
			cur.Reset()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFrameDecode measures the tape fast path: decoding frames
// straight from a materialized tape's columns through Cursor.ReadFrame
// (compare records/s against BenchmarkTapeReplay's per-record Next).
func BenchmarkFrameDecode(b *testing.B) {
	spec, err := trace.ByName("web-zeus")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	tape := trace.NewTape(spec, 1, 1, 1_000_000)
	cur := tape.Cursor(0)
	f := trace.NewFrame()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		if cur.ReadFrame(f) == 0 {
			cur.Reset()
			cur.ReadFrame(f)
		}
		n += f.Len()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkFrameVsNext compares the two consumption paths over the same
// live generator: record-at-a-time Next versus batched ReadFrame.
func BenchmarkFrameVsNext(b *testing.B) {
	spec, err := trace.ByName("web-zeus")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(0.0625)
	b.Run("next", func(b *testing.B) {
		gen := trace.NewGenerator(trace.NewLibrary(spec, 1), 0, 1)
		var rec trace.Record
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gen.Next(&rec)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("frame", func(b *testing.B) {
		gen := trace.NewGenerator(trace.NewLibrary(spec, 1), 0, 1)
		f := trace.NewFrame()
		b.ResetTimer()
		var n int
		for i := 0; i < b.N; i++ {
			trace.FillFrame(gen, f)
			n += f.Len()
		}
		b.StopTimer()
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkFig8Shared runs the Fig. 8/9 headline matrix — the eight
// workloads × {baseline, ideal, stms} — on one Lab session per
// iteration: eight tape builds serve all twenty-four cells. The
// records/s metric counts every simulated record; tape-hits/op checks
// the sharing actually happened.
func BenchmarkFig8Shared(b *testing.B) {
	o := benchOptions()
	var hits uint64
	perCell := (o.Warm + o.Measure) * uint64(stms.DefaultConfig().Cores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab, err := stms.New(
			stms.WithScale(o.Scale), stms.WithSeed(o.Seed),
			stms.WithWindows(o.Warm, o.Measure),
		)
		if err != nil {
			b.Fatal(err)
		}
		plan := lab.Plan(stms.FigureEight(), []stms.PrefSpec{
			{Kind: stms.None},
			{Kind: stms.Ideal},
			{Kind: stms.STMS, SampleProb: 0.125},
		})
		m, err := lab.Run(context.Background(), plan)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Complete() {
			b.Fatal("incomplete matrix")
		}
		hits += lab.TapeStats().Hits
	}
	cells := uint64(len(stms.FigureEight()) * 3)
	b.ReportMetric(float64(cells*perCell)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(hits)/float64(b.N), "tape-hits/op")
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner(benchOptions())
		t := r.AblIndexOrg()
		if i == 0 {
			logTable(b, t)
			logTable(b, r.AblPairwise())
		}
	}
}
