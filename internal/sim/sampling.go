package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"stms/internal/ckpt"
	"stms/internal/event"
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

// errSampledHalt aborts a window run after the sampled-run coordinator
// has written its haltAfter-th checkpoint; the scheduler maps it to
// ErrCheckpointed.
var errSampledHalt = errors.New("sim: sampled run halting after checkpoint")

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

// sampledSupported gates sampling on configurations whose warm state is
// snapshotable — the same set as checkpointing.
func sampledSupported(src ckptSrc, ps PrefSpec) error {
	if !CheckpointablePref(ps) {
		return fmt.Errorf("sim: the %s variant is not sampleable (warm state cannot be snapshotted)", ps.Kind)
	}
	if src.kind == "external" {
		return fmt.Errorf("sim: runs over externally supplied generators cannot be sampled (sources cannot be re-derived per window)")
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
// system. No handler ids are recorded (nothing is in flight), mirroring
// snapshotFunc.
func (s *functional) warmSnapshot() ([]byte, error) {
	noIDs := func(event.Handler) (uint32, bool) { return 0, false }
	enc := ckpt.NewEncoder()
	enc.Section("sim.warm")
	s.l2.Snapshot(enc)
	for _, c := range s.l1 {
		c.Snapshot(enc)
	}
	s.strid.Snapshot(enc)
	if err := snapshotPref(enc, &s.vars[0].pref, noIDs); err != nil {
		return nil, err
	}
	return bytes.Clone(enc.Payload()), nil
}

// applyWarm restores functionally warmed state into a freshly
// constructed timed system, before its cores start.
func (s *timed) applyWarm(payload []byte) error {
	dec := ckpt.NewDecoder(payload)
	dec.Section("sim.warm")
	if err := s.l2.Restore(dec); err != nil {
		return err
	}
	for _, c := range s.l1 {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	if err := s.strid.Restore(dec); err != nil {
		return err
	}
	if err := restorePref(dec, &s.pref, handlerOfFunc(s.handlers())); err != nil {
		return err
	}
	return dec.Err()
}

// --- sampled checkpoint container ------------------------------------------

// sampledDesc heads a sampled checkpoint container: everything needed
// to rebuild the sampled run.
type sampledDesc struct {
	Mode     string          `json:"mode"`   // "sampled"
	Source   string          `json:"source"` // "spec" | "scenario" | "tape"
	Cfg      Config          `json:"cfg"`
	PS       PrefSpec        `json:"ps"`
	Spec     *trace.Spec     `json:"spec,omitempty"`
	Scenario *trace.Scenario `json:"scenario,omitempty"`
	Smp      Sampling        `json:"sampling"`
}

// newSampledDesc is d in the sampled container's JSON layout.
func newSampledDesc(d CheckpointDesc) sampledDesc {
	return sampledDesc{Mode: d.Mode, Source: d.Source, Cfg: d.Cfg, PS: d.PS,
		Spec: d.Spec, Scenario: d.Scenario, Smp: d.Sampling}
}

// Per-window slot states in a sampled container.
const (
	slotNone    uint8 = iota // window not started (or no checkpoint yet)
	slotPartial              // slot holds a sealed mid-window checkpoint
	slotDone                 // slot holds the window's JSON Results
)

// sampledCkpt coordinates checkpointing across the K window goroutines:
// each window's checkpoint sink lands here, updates the window's slot
// and rewrites one combined container holding the sampled descriptor
// plus every window's latest state.
type sampledCkpt struct {
	mu     sync.Mutex
	opt    runOpts // sampled-level options (path/sink/every/haltAfter)
	desc   []byte  // marshaled sampledDesc
	state  []byte  // per-window slot states
	slots  [][]byte
	writes int
	halted bool
	cancel context.CancelFunc
}

// write rewrites the combined container from the current slots. Caller
// holds mu.
func (c *sampledCkpt) write() error {
	enc := ckpt.NewEncoder()
	enc.Section("sim.sampled")
	enc.Bytes(c.desc)
	enc.Int(len(c.state))
	for w := range c.state {
		enc.U8(c.state[w])
		enc.Bytes(c.slots[w])
	}
	return c.opt.deliver(enc.Payload())
}

// onWindow returns window w's checkpoint sink. Which window triggers
// the n-th combined write depends on goroutine scheduling, so the
// container contents are not deterministic — but every slot is, so the
// resumed run's estimate is identical to the uninterrupted one.
func (c *sampledCkpt) onWindow(w int) func([]byte) error {
	return func(data []byte) error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.halted {
			return errSampledHalt
		}
		c.state[w] = slotPartial
		c.slots[w] = append([]byte(nil), data...)
		if err := c.write(); err != nil {
			return err
		}
		c.writes++
		if c.opt.haltAfter > 0 && c.writes >= c.opt.haltAfter {
			c.halted = true
			c.cancel()
			return errSampledHalt
		}
		return nil
	}
}

// finish records window w's completed Results and refreshes the
// container so a later resume skips the window entirely.
func (c *sampledCkpt) finish(w int, res Results) error {
	j, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sim: encoding window results: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state[w] = slotDone
	c.slots[w] = j
	return c.write()
}

// openSampled unpacks a sealed sampled container: its descriptor and
// each window's slot state and contents.
func openSampled(data []byte) (CheckpointDesc, []byte, [][]byte, error) {
	payload, err := ckpt.Open(data)
	if err != nil {
		return CheckpointDesc{}, nil, nil, err
	}
	dec := ckpt.NewDecoder(payload)
	dec.Section("sim.sampled")
	j := dec.Bytes()
	if err := dec.Err(); err != nil {
		return CheckpointDesc{}, nil, nil, fmt.Errorf("sim: not a sampled checkpoint: %w", err)
	}
	var d sampledDesc
	if err := json.Unmarshal(j, &d); err != nil {
		return CheckpointDesc{}, nil, nil, fmt.Errorf("sim: corrupt sampled descriptor: %w", err)
	}
	desc := CheckpointDesc{Mode: d.Mode, Source: d.Source, Cfg: d.Cfg, PS: d.PS,
		Spec: d.Spec, Scenario: d.Scenario, Sampling: d.Smp}
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return CheckpointDesc{}, nil, nil, err
	}
	state := make([]byte, n)
	slots := make([][]byte, n)
	for w := 0; w < n; w++ {
		state[w] = dec.U8()
		slots[w] = dec.Bytes()
	}
	if err := dec.Err(); err != nil {
		return CheckpointDesc{}, nil, nil, err
	}
	return desc, state, slots, nil
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
// the exact serial run (and Exact is set). Checkpoint options apply to
// the sampled run as a whole: windows share one combined container,
// and WithResume restores it (completed windows are not re-run). A
// scenario's stitched Results carry no per-phase windows (phases
// attribute records across window boundaries).
func Sample(ctx context.Context, cfg Config, in Input, ps PrefSpec, smp Sampling, opts ...RunOption) (SampledResults, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := gatherOpts(opts)
	if err := cfg.Validate(); err != nil {
		return SampledResults{}, err
	}
	if err := smp.validate(); err != nil {
		return SampledResults{}, err
	}
	if o.mode != Timed {
		return SampledResults{}, fmt.Errorf("sim: sampled runs use the timed driver, not %s", o.mode)
	}
	smp = smp.normalized(cfg)
	if smp.Windows <= 1 {
		rs, err := Run(ctx, cfg, in, []PrefSpec{ps}, opts...)
		if err != nil {
			return SampledResults{}, err
		}
		return exactSampled(rs[0], smp), nil
	}
	b, err := in.bind(cfg)
	if err != nil {
		return SampledResults{}, err
	}
	return runSampled(ctx, cfg, b, ps, smp, &o)
}

// --- scheduler -------------------------------------------------------------

// runSampled is the fork/join scheduler: K goroutines, one per window,
// each warming and running its own detailed simulation; the join step
// stitches the window Results and computes the intervals.
func runSampled(ctx context.Context, cfg Config, b bound, ps PrefSpec, smp Sampling, opt *runOpts) (SampledResults, error) {
	if err := sampledSupported(b.src, ps); err != nil {
		return SampledResults{}, err
	}
	desc := descFor("sampled", b.src, cfg, ps, 0)
	desc.Sampling = smp
	plan := windowPlan(cfg, smp)
	k := len(plan)

	// Resume slots: the combined container records each window's state.
	state := make([]byte, k)
	slots := make([][]byte, k)
	if opt.resume != nil {
		d, st, sl, err := openSampled(opt.resume)
		if err != nil {
			return SampledResults{}, err
		}
		if err := checkDesc(d, desc.identity()); err != nil {
			return SampledResults{}, err
		}
		if len(st) != k {
			return SampledResults{}, fmt.Errorf("sim: sampled checkpoint has %d windows, run plans %d", len(st), k)
		}
		state, slots = st, sl
	}

	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	var sc *sampledCkpt
	if opt.active() || opt.path != "" || opt.sink != nil {
		dj, err := json.Marshal(newSampledDesc(desc))
		if err != nil {
			return SampledResults{}, fmt.Errorf("sim: encoding sampled descriptor: %w", err)
		}
		sc = &sampledCkpt{opt: *opt, desc: dj, state: state, slots: slots, cancel: cancel}
	}

	// Aggregate progress: each window reports its own (done, total);
	// the callback forwards the sum. Completed (restored) windows count
	// at full weight.
	var totalAll uint64
	perTotal := make([]uint64, k)
	for w, g := range plan {
		perTotal[w] = (g.warm + g.length) * uint64(cfg.Cores)
		totalAll += perTotal[w]
	}
	doneBy := make([]uint64, k)
	var progMu sync.Mutex
	progFor := func(w int) Progress {
		if opt.progress == nil {
			return nil
		}
		return func(done, total uint64) {
			progMu.Lock()
			doneBy[w] = min(done, perTotal[w])
			var sum uint64
			for _, v := range doneBy {
				sum += v
			}
			progMu.Unlock()
			opt.progress(sum, totalAll)
		}
	}

	wsrc := ckptSrc{kind: "window:" + b.src.kind}
	results := make([]Results, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := range plan {
		if state[w] == slotDone {
			if err := json.Unmarshal(slots[w], &results[w]); err != nil {
				return SampledResults{}, fmt.Errorf("sim: corrupt window %d results in sampled checkpoint: %w", w, err)
			}
			doneBy[w] = perTotal[w]
			continue
		}
		var resume []byte
		if state[w] == slotPartial {
			resume = slots[w]
		}
		wg.Add(1)
		go func(w int, resume []byte) {
			defer wg.Done()
			results[w], errs[w] = runOneWindow(ctx2, cfg, b, ps, plan[w], wsrc, sc, w, resume, opt.stopCh, progFor(w))
			switch {
			case errs[w] == nil:
				if sc != nil {
					if err := sc.finish(w, results[w]); err != nil {
						errs[w] = err
						cancel()
					}
				}
			case errors.Is(errs[w], errSampledHalt), errors.Is(errs[w], ErrCheckpointed):
				// Coordinated halt; siblings are being cancelled (or
				// flushing their own final checkpoints).
			default:
				cancel()
			}
		}(w, resume)
	}
	wg.Wait()

	halted := false
	if sc != nil {
		sc.mu.Lock()
		halted = sc.halted
		sc.mu.Unlock()
	}
	var firstErr, canceled error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, errSampledHalt), errors.Is(err, ErrCheckpointed):
			halted = true
		case errors.Is(err, context.Canceled):
			canceled = err
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	switch {
	case halted:
		return SampledResults{}, ErrCheckpointed
	case ctx.Err() != nil:
		return SampledResults{}, ctx.Err()
	case firstErr != nil:
		return SampledResults{}, firstErr
	case canceled != nil:
		return SampledResults{}, canceled
	}
	return stitchSampled(ps, smp, b.spec, plan, results), nil
}

// runOneWindow warms and runs one window's detailed simulation.
func runOneWindow(ctx context.Context, cfg Config, b bound, ps PrefSpec, g windowGeom, wsrc ckptSrc, sc *sampledCkpt, w int, resume []byte, stopCh <-chan struct{}, progress Progress) (Results, error) {
	cfgW := cfg
	cfgW.WarmRecords = g.warm
	cfgW.MeasureRecords = g.length

	wo := runOpts{windowClock: true, progress: progress}
	if sc != nil {
		WithCheckpointFunc(sc.opt.every, sc.onWindow(w))(&wo)
		wo.stopCh = stopCh
	}
	var gens []trace.Generator
	var err error
	switch {
	case resume != nil:
		// A resumed window restores its full mid-run state; the warm
		// pass already happened in the original run.
		wo.resume = resume
		gens, _, err = b.gens(g.start-g.warm, g.warm+g.length)
	case g.funcWarm+g.metaWarm > 0:
		// One generator set covers warming and the timed run: runWarm
		// consumes exactly the warming budget, leaving the generators
		// positioned at the detailed warm-up boundary.
		gens, _, err = b.gens(0, g.start+g.length)
		if err != nil {
			return Results{}, err
		}
		wo.warm, err = runWarm(ctx, cfgW, b.spec, gens, ps, g.metaWarm, g.funcWarm)
	default:
		gens, _, err = b.gens(g.start-g.warm, g.warm+g.length)
	}
	if err != nil {
		return Results{}, err
	}
	f := feed{spec: b.spec, srcs: frameSources(gens), total: (g.warm + g.length) * uint64(cfg.Cores), src: wsrc}
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
