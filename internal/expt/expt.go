// Package expt regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns aligned-text tables carrying
// the same rows/series the paper reports; DESIGN.md maps experiment IDs
// to paper artifacts.
//
// Experiments share one lab session, so matched runs (the stride-only
// baseline, the idealized prefetcher) are simulated once per workload
// and reused across figures, exactly as the paper's matched-pair
// methodology reuses checkpoints — and each figure's workload × variant
// cross-product executes in parallel across the session's worker pool.
package expt

import (
	"context"
	"runtime"
	"sort"

	"stms/internal/lab"
	"stms/internal/sim"
	"stms/internal/stats"
)

// Options control experiment scale. The defaults target a few minutes for
// the full suite; Figure shapes are scale-invariant (DESIGN.md §2).
type Options struct {
	// Scale shrinks caches, meta-data and workload footprints together.
	Scale float64
	// Seed drives trace generation and sampling.
	Seed uint64
	// Warm and Measure are per-core record counts.
	Warm, Measure uint64
	// Parallel bounds the worker pool running matrix cells
	// (0 = runtime.NumCPU()). Results are deterministic regardless.
	Parallel int
}

// DefaultOptions is the standard experiment scale (1/8 of the paper's
// sizes).
func DefaultOptions() Options {
	return Options{Scale: 0.125, Seed: 42, Warm: 80_000, Measure: 120_000}
}

// Config builds the simulator configuration for these options.
func (o Options) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = o.Scale
	cfg.Seed = o.Seed
	cfg.WarmRecords = o.Warm
	cfg.MeasureRecords = o.Measure
	return cfg
}

func (o Options) parallelism() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.NumCPU()
}

// Runner executes experiments over a shared lab session, which
// memoizes simulation runs across experiments and fans each figure's
// run matrix out over a worker pool.
type Runner struct {
	O Options
	l *lab.Lab
}

// NewRunner creates a runner for the given options.
func NewRunner(o Options) *Runner {
	l, err := lab.New(
		lab.WithBaseConfig(o.Config()),
		lab.WithParallelism(o.parallelism()),
	)
	if err != nil {
		panic(err)
	}
	return &Runner{O: o, l: l}
}

// Lab exposes the underlying session (shared memo, worker pool) so
// callers can mix bespoke plans with the canned experiments.
func (r *Runner) Lab() *lab.Lab { return r.l }

// run executes a plan, panicking on plan or execution errors —
// experiment definitions are static, so failures here are programming
// errors, matching the substrate's panic-on-invariant style.
func (r *Runner) run(p *lab.RunPlan) *lab.Matrix {
	m, err := r.l.Run(context.Background(), p)
	if err != nil {
		panic(err)
	}
	return m
}

// timed runs a workload × variant cross-product on the timed driver.
func (r *Runner) timed(workloads []string, prefs []sim.PrefSpec, opts ...lab.PlanOption) *lab.Matrix {
	return r.run(r.l.Plan(workloads, prefs, opts...))
}

// functional runs a cross-product on the zero-latency driver.
func (r *Runner) functional(workloads []string, prefs []sim.PrefSpec, opts ...lab.PlanOption) *lab.Matrix {
	opts = append(opts, lab.InMode(lab.Functional))
	return r.run(r.l.Plan(workloads, prefs, opts...))
}

// Timed runs (or recalls) a single timed simulation.
func (r *Runner) Timed(workload string, ps sim.PrefSpec) sim.Results {
	return *r.timed([]string{workload}, []sim.PrefSpec{ps}).At(0, 0).Res
}

// Functional runs (or recalls) a single functional simulation.
func (r *Runner) Functional(workload string, ps sim.PrefSpec) sim.Results {
	return *r.functional([]string{workload}, []sim.PrefSpec{ps}).At(0, 0).Res
}

// shortName compresses workload names for column headers
// ("web-apache" → "Apache").
func shortName(w string) string {
	switch w {
	case "web-apache":
		return "Apache"
	case "web-zeus":
		return "Zeus"
	case "oltp-db2":
		return "OLTP-DB2"
	case "oltp-oracle":
		return "Oracle"
	case "dss-qry2":
		return "DSS-Q2"
	case "dss-qry17":
		return "DSS-DB2"
	case "sci-em3d":
		return "em3d"
	case "sci-moldyn":
		return "moldyn"
	case "sci-ocean":
		return "ocean"
	}
	return w
}

// geomeanOf collects the geometric mean of a map's values in key order.
func geomeanOf(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]float64, 0, len(keys))
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return stats.GeoMean(vals)
}
