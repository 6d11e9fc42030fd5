package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"stms/internal/ckpt"
	"stms/internal/stats"
	"stms/internal/trace"
)

// SMARTS-style sampled simulation (Wunderlich et al., ISCA'03). One
// serial timed run is split into K measurement windows that tile the
// measurement span exactly; each window runs on its own goroutine as an
// independent detailed simulation, warmed in three stages:
//
//  1. a meta-data-only replay (functional.metaStep: L2 contents plus
//     history-buffer/index-table updates, nothing else) covers the
//     window's entire trace prefix. STMS meta-data lives off-chip and
//     accumulates over the whole run without saturating, so a bounded
//     warming horizon systematically under-covers later windows; the
//     stripped-down replay makes the full prefix affordable;
//  2. a full-fidelity functional pass (the zero-latency driver) replays
//     the last Sampling.FuncWarmup records before the window to heat
//     the structures that do reach steady state quickly — L1s, L2
//     recency, stride tables, the prefetch buffer and active streams —
//     then hands the state to the timed system as an in-memory ckpt
//     payload;
//  3. a short detailed warm-up (Sampling.Warmup records) inside the
//     timed run settles the timing state (MSHRs, DRAM queues, in-flight
//     streams) before measurement opens. The cores barrier on the
//     warm-up boundary (cpu.Core.Pause) so no measurement records are
//     lost to inter-core skew, and the window clock stops at the last
//     instruction commit so the end-of-run drain tail is not paid once
//     per window.
//
// The join step stitches the per-window Results into one estimate
// (ratio metrics recomputed from summed numerators/denominators) and
// reports a Student-t confidence interval per metric over the window
// strata (stats.StratifiedMean). Every stage is deterministic, so the
// sampled estimate is identical across runs regardless of goroutine
// scheduling.
//
// Windows warm independently rather than forking one serial functional
// sweep: the full-fidelity functional driver is only ~2× faster than
// the timed one (the shared cache/prefetcher state machines dominate
// both), so a serial sweep that long would cap speedup below 2× by
// Amdahl's law. The meta-data-only replay is several times faster
// still, which is what makes per-window full-prefix warming compatible
// with real parallel speedup. K = 1 takes none of these stages: it
// delegates to the exact serial run and is bit-identical to it.

// Sampling configures sampled simulation for Sample.
type Sampling struct {
	// Windows is K, the number of concurrent measurement windows the
	// measurement span is split into. 0 and 1 both mean "exact": the
	// run delegates to the serial timed driver.
	Windows int `json:"windows"`

	// Warmup is the per-core record count of detailed (timed) warm-up
	// run before each window's measurement opens. 0 defaults to a
	// quarter of Config.WarmRecords (minimum 1).
	Warmup uint64 `json:"warmup"`

	// FuncWarmup is the per-core record count of full-fidelity
	// functional warming replayed before the detailed warm-up. The rest
	// of the window's trace prefix, back to record zero, is always
	// replayed through the cheap meta-data-only warmer first. 0
	// defaults to Config.WarmRecords.
	FuncWarmup uint64 `json:"func_warmup"`

	// Confidence is the two-sided level of the reported intervals.
	// 0 defaults to 0.95.
	Confidence float64 `json:"confidence"`
}

// normalized fills defaults in and clamps K to the measurement span so
// every window measures at least one record.
func (s Sampling) normalized(cfg Config) Sampling {
	if s.Windows < 1 {
		s.Windows = 1
	}
	if uint64(s.Windows) > cfg.MeasureRecords {
		s.Windows = int(cfg.MeasureRecords)
	}
	if s.Warmup == 0 {
		if s.Warmup = cfg.WarmRecords / 4; s.Warmup == 0 {
			s.Warmup = 1
		}
	}
	if s.FuncWarmup == 0 {
		s.FuncWarmup = cfg.WarmRecords
	}
	if s.Confidence == 0 {
		s.Confidence = 0.95
	}
	return s
}

func (s Sampling) validate() error {
	if s.Confidence != 0 && (s.Confidence <= 0 || s.Confidence >= 1) {
		return fmt.Errorf("sim: confidence level %g outside (0,1)", s.Confidence)
	}
	return nil
}

// WindowStat is one window's slice of a sampled run: its geometry in
// per-core record indices and its detailed Results.
type WindowStat struct {
	Index      int     `json:"index"`
	Start      uint64  `json:"start"`       // first measured record (per core)
	Len        uint64  `json:"len"`         // measured records per core
	Warmup     uint64  `json:"warmup"`      // detailed warm-up records per core
	FuncWarmup uint64  `json:"func_warmup"` // full-fidelity functional warming records per core
	MetaWarmup uint64  `json:"meta_warmup"` // meta-data-only warming records per core
	Results    Results `json:"results"`
}

// SampledCI carries the per-metric confidence intervals of a sampled
// run. Ratio metrics are weighted by their denominators (cycles for
// IPC/MLP/DRAM utilization, baseline misses for coverage), so each
// interval is centered on the stitched ratio-of-sums estimate.
type SampledCI struct {
	IPC      stats.CI `json:"ipc"`
	MLP      stats.CI `json:"mlp"`
	DRAMUtil stats.CI `json:"dram_util"`
	Coverage stats.CI `json:"coverage"`
}

// SampledResults is the join of a sampled run: the stitched estimate in
// Results form (sums of window counters; ratio metrics recomputed from
// the sums), the per-window details, and the confidence intervals.
type SampledResults struct {
	Results Results `json:"results"`

	// Exact marks a K ≤ 1 run that delegated to the serial timed
	// driver: Results are bit-identical to the exact run and the
	// intervals degenerate to points.
	Exact bool `json:"exact"`

	// Sampling echoes the normalized parameters the run used.
	Sampling Sampling `json:"sampling"`

	Windows []WindowStat `json:"windows,omitempty"`
	CI      SampledCI    `json:"ci"`
}

// windowGeom is one window's geometry in per-core record indices: the
// measurement spans [start, start+length), the detailed warm-up
// [start-warm, start), full-fidelity functional warming
// [start-warm-funcWarm, start-warm), and meta-data-only warming the
// whole remaining prefix [0, start-warm-funcWarm).
type windowGeom struct {
	start, length, warm, funcWarm, metaWarm uint64
}

// windowPlan tiles the measurement span [W, W+M) across K windows:
// ΣL_w = M with no overlap, remainder records going to the earliest
// windows. The warm-up stages clamp at the start of the trace; the
// meta-data warmer always extends the warming back to record zero, so
// every window sees the full off-chip meta-data accumulated before it.
func windowPlan(cfg Config, smp Sampling) []windowGeom {
	k := uint64(smp.Windows)
	m, w0 := cfg.MeasureRecords, cfg.WarmRecords
	l, rem := m/k, m%k
	plan := make([]windowGeom, k)
	for w := uint64(0); w < k; w++ {
		g := windowGeom{length: l, start: w0 + w*l + min(w, rem)}
		if w < rem {
			g.length++
		}
		g.warm = min(smp.Warmup, g.start)
		g.funcWarm = min(smp.FuncWarmup, g.start-g.warm)
		g.metaWarm = g.start - g.warm - g.funcWarm
		plan[w] = g
	}
	return plan
}

// drainRecords consumes n records from g. Its frames are capped at the
// records still owed, so g stops exactly n records further on.
func drainRecords(g trace.Generator, n uint64) error {
	if n == 0 {
		return nil
	}
	l := trace.Limit{Gen: g, N: n}
	f := trace.NewFrame()
	for l.ReadFrame(f) > 0 {
	}
	if l.N > 0 {
		return fmt.Errorf("sim: trace ran dry after %d of %d skipped records", n-l.N, n)
	}
	return nil
}

// runWarm drives the window's warming schedule — meta-data-only replay
// over the deep prefix, then full-fidelity functional simulation over
// the recent horizon — and captures the warm state (caches, stride
// tables, temporal prefetcher) as an in-memory ckpt payload. The
// functional driver is fully synchronous, so the payload holds no
// in-flight operations — it restores cleanly into a timed system whose
// event engine starts empty.
// Each core's frames are capped at the records it still owes, so after
// the warm budget the generators sit exactly at the window's detailed
// warm-up boundary and the caller reuses them for the timed run — the
// window's trace prefix is generated once, not once per stage.
func runWarm(ctx context.Context, cfg Config, scaled trace.Spec, gens []trace.Generator, ps PrefSpec, metaPerCore, funcPerCore uint64) ([]byte, error) {
	s := newFunctional(cfg, scaled, ps)
	lims := make([]trace.Limit, cfg.Cores)
	frames := make([]*trace.Frame, cfg.Cores)
	pos := make([]int, cfg.Cores)
	for c := range lims {
		lims[c] = trace.Limit{Gen: gens[c], N: metaPerCore + funcPerCore}
		frames[c] = trace.NewFrame()
	}
	metaTotal := metaPerCore * uint64(cfg.Cores)
	total := metaTotal + funcPerCore*uint64(cfg.Cores)
	for i := uint64(0); i < total; i++ {
		if i%pollEvery == 0 && i > 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		core := int(i % uint64(cfg.Cores))
		f := frames[core]
		if pos[core] == f.Len() {
			if lims[core].ReadFrame(f) == 0 {
				break
			}
			pos[core] = 0
		}
		k := pos[core]
		pos[core]++
		s.now = i
		if i < metaTotal {
			s.metaStep(core, f.Block[k])
		} else {
			s.step(core, f.PC[k], f.Block[k])
		}
	}
	return s.warmSnapshot()
}

// warmSnapshot serializes the functional state shared with the timed
// system: the hierarchy sections of a functional checkpoint.
func (s *functional) warmSnapshot() ([]byte, error) {
	enc := ckpt.NewEncoder()
	enc.Section("sim.warm")
	if err := snapshotHier(enc, s.l2, s.l1, s.strid, &s.vars[0].pref, noIDs); err != nil {
		return nil, err
	}
	return bytes.Clone(enc.Payload()), nil
}

// applyWarm restores functionally warmed state into a freshly
// constructed timed system, before its cores start.
func (s *timed) applyWarm(payload []byte) error {
	dec := ckpt.NewDecoder(payload)
	dec.Section("sim.warm")
	if err := restoreHier(dec, s.l2, s.l1, s.strid, &s.pref, handlerOfFunc(s.handlers())); err != nil {
		return err
	}
	return dec.Err()
}

// --- entry points ----------------------------------------------------------

// exactSampled wraps a serial run's Results as a degenerate sampled
// estimate (point intervals, N = 1).
func exactSampled(r Results, smp Sampling) SampledResults {
	point := func(v float64) stats.CI {
		return stats.CI{Mean: v, Lo: v, Hi: v, Level: smp.Confidence, N: 1}
	}
	return SampledResults{
		Results:  r,
		Exact:    true,
		Sampling: smp,
		CI: SampledCI{
			IPC:      point(r.IPC),
			MLP:      point(r.MLP),
			DRAMUtil: point(r.DRAMUtil),
			Coverage: point(r.Coverage()),
		},
	}
}

// Sample executes the timed simulation of the input as K concurrent
// sampled windows and returns the stitched estimate with confidence
// intervals. K ≤ 1 delegates to Run: the Results are bit-identical to
// the exact serial run (and Exact is set). Sampled runs neither
// checkpoint nor resume: each window is an independent measurement
// from warmed state. A scenario's stitched Results carry no per-phase
// windows (phases attribute records across window boundaries).
func Sample(ctx context.Context, cfg Config, in Input, ps PrefSpec, smp Sampling) (SampledResults, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return SampledResults{}, err
	}
	if err := smp.validate(); err != nil {
		return SampledResults{}, err
	}
	smp = smp.normalized(cfg)
	if smp.Windows <= 1 {
		rs, err := Run(ctx, cfg, in, []PrefSpec{ps})
		if err != nil {
			return SampledResults{}, err
		}
		return exactSampled(rs[0], smp), nil
	}
	b, err := in.bind(cfg)
	if err != nil {
		return SampledResults{}, err
	}
	return runSampled(ctx, cfg, b, ps, smp)
}

// --- scheduler -------------------------------------------------------------

// runSampled is the fork/join scheduler: K goroutines, one per window,
// each warming and running its own detailed simulation; the first
// failing window cancels the rest, and the join step stitches the
// window Results and computes the intervals. Window warm state is
// handed over as a snapshot, so sampling takes the checkpointable
// configurations only.
func runSampled(ctx context.Context, cfg Config, b bound, ps PrefSpec, smp Sampling) (SampledResults, error) {
	if err := checkpointable(b.src, ps); err != nil {
		return SampledResults{}, err
	}
	plan := windowPlan(cfg, smp)
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]Results, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for w := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if results[w], errs[w] = runOneWindow(ctx2, cfg, b, ps, plan[w]); errs[w] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return SampledResults{}, err
	}
	// The windows cancelled by a sibling's failure report
	// context.Canceled; the sibling's own error is the one to return.
	var firstErr error
	for _, err := range errs {
		if err != nil && (firstErr == nil || errors.Is(firstErr, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return SampledResults{}, firstErr
	}
	return stitchSampled(ps, smp, b.spec, plan, results), nil
}

// runOneWindow warms and runs one window's detailed simulation.
func runOneWindow(ctx context.Context, cfg Config, b bound, ps PrefSpec, g windowGeom) (Results, error) {
	cfgW := cfg
	cfgW.WarmRecords = g.warm
	cfgW.MeasureRecords = g.length

	wo := runOpts{windowClock: true}
	var gens []trace.Generator
	var err error
	if g.funcWarm+g.metaWarm > 0 {
		// One generator set covers warming and the timed run: runWarm
		// consumes exactly the warming budget, leaving the generators
		// positioned at the detailed warm-up boundary.
		gens, _, err = b.gens(0, g.start+g.length)
		if err != nil {
			return Results{}, err
		}
		wo.warm, err = runWarm(ctx, cfgW, b.spec, gens, ps, g.metaWarm, g.funcWarm)
	} else {
		gens, _, err = b.gens(g.start-g.warm, g.warm+g.length)
	}
	if err != nil {
		return Results{}, err
	}
	f := feed{spec: b.spec, srcs: frameSources(gens), total: (g.warm + g.length) * uint64(cfg.Cores), src: b.src}
	return runTimed(ctx, cfgW, f, ps, &wo)
}

// addEngineCounts is the element-wise sum (the Sub counterpart, used
// only by the stitcher).
func addEngineCounts(a, b EngineCounts) EngineCounts {
	return EngineCounts{
		Lookups: a.Lookups + b.Lookups, LookupHits: a.LookupHits + b.LookupHits,
		Adopted: a.Adopted + b.Adopted, Abandoned: a.Abandoned + b.Abandoned,
		Resumed: a.Resumed + b.Resumed, DepthStops: a.DepthStops + b.DepthStops,
		Exhausted: a.Exhausted + b.Exhausted, Issued: a.Issued + b.Issued,
		Filtered: a.Filtered + b.Filtered, FullHits: a.FullHits + b.FullHits,
		PartialHits: a.PartialHits + b.PartialHits, Evicted: a.Evicted + b.Evicted,
	}
}

// stitchSampled joins the window Results into one estimate. Counters
// sum; ratio metrics are recomputed from the sums, which is exactly
// what StratifiedMean's denominator weighting reports as each
// interval's center. StreamLens and Phases are window-local views and
// are not stitched.
func stitchSampled(ps PrefSpec, smp Sampling, scaled trace.Spec, plan []windowGeom, results []Results) SampledResults {
	k := len(plan)
	sr := SampledResults{Sampling: smp, Windows: make([]WindowStat, k)}
	agg := Results{Workload: scaled.Name, Variant: ps.Kind.String()}
	ipc := make([]float64, k)
	mlp := make([]float64, k)
	util := make([]float64, k)
	cov := make([]float64, k)
	cyc := make([]float64, k)
	miss := make([]float64, k)
	for w := range results {
		r := &results[w]
		g := plan[w]
		sr.Windows[w] = WindowStat{
			Index: w, Start: g.start, Len: g.length, Warmup: g.warm,
			FuncWarmup: g.funcWarm, MetaWarmup: g.metaWarm, Results: *r,
		}
		agg.ElapsedCycles += r.ElapsedCycles
		agg.Instrs += r.Instrs
		agg.Records += r.Records
		agg.L1Hits += r.L1Hits
		agg.L2Hits += r.L2Hits
		agg.CoveredFull += r.CoveredFull
		agg.CoveredPartial += r.CoveredPartial
		agg.Uncovered += r.Uncovered
		for c := range agg.Traffic.Accesses {
			agg.Traffic.Accesses[c] += r.Traffic.Accesses[c]
		}
		agg.Engine = addEngineCounts(agg.Engine, r.Engine)
		agg.Frames.Add(r.Frames)
		ipc[w], mlp[w], util[w] = r.IPC, r.MLP, r.DRAMUtil
		cov[w] = r.Coverage()
		cyc[w] = float64(r.ElapsedCycles)
		miss[w] = float64(r.BaselineMisses())
	}
	sr.CI.IPC = stats.StratifiedMean(ipc, cyc, smp.Confidence)
	sr.CI.MLP = stats.StratifiedMean(mlp, cyc, smp.Confidence)
	sr.CI.DRAMUtil = stats.StratifiedMean(util, cyc, smp.Confidence)
	sr.CI.Coverage = stats.StratifiedMean(cov, miss, smp.Confidence)
	if agg.ElapsedCycles > 0 {
		agg.IPC = float64(agg.Instrs) / float64(agg.ElapsedCycles)
	}
	agg.MLP = sr.CI.MLP.Mean
	agg.DRAMUtil = sr.CI.DRAMUtil.Mean
	sr.Results = agg
	return sr
}
