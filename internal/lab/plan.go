package lab

import (
	"fmt"

	"stms/internal/sim"
	"stms/internal/trace"
)

// Mode selects the simulation driver for a plan's cells.
type Mode = sim.Mode

// Drivers: the cycle-level timed simulation (speedups, traffic) and the
// fast zero-latency functional driver (coverage sweeps).
const (
	Timed      = sim.Timed
	Functional = sim.Functional
)

// Cell is one unit of work in a plan: a workload — a stationary spec or
// a phase-structured scenario — under a prefetcher variant, with its
// fully resolved system configuration. Rows index workloads, columns
// index variants.
type Cell struct {
	Row, Col int
	Workload string     // display name (Spec.Name unless overridden)
	Label    string     // column label (variant name unless overridden)
	Spec     trace.Spec // full-scale workload spec; Config.Scale applies at run
	Pref     sim.PrefSpec
	Mode     Mode
	Config   sim.Config // per-cell system config (seed, scale, windows, ...)

	// Sampling, when Windows > 1 on a timed cell, runs the cell as a
	// K-window sampled simulation (see WithSampling); the zero value
	// means an exact serial run.
	Sampling sim.Sampling

	// Scenario, when non-nil, replaces Spec as the cell's workload: the
	// cell simulates the phase-structured scenario (full-scale;
	// Config.Scale applies at run) and its Results carry per-phase
	// windows. Spec is zero-valued for scenario cells.
	Scenario *trace.Scenario
}

// RunPlan is an executable workload × variant cross-product. Build one
// with Lab.Plan or Lab.PlanSpecs; construction errors surface from
// Err() and from Lab.Run.
type RunPlan struct {
	Workloads []string // row labels, in order
	Labels    []string // column labels, in order
	Cells     []Cell   // row-major
	err       error
}

// Err reports plan-construction errors (unknown workload names, invalid
// specs, shape mismatches).
func (p *RunPlan) Err() error { return p.err }

// Size returns the plan's matrix shape.
func (p *RunPlan) Size() (rows, cols int) { return len(p.Workloads), len(p.Labels) }

// PlanOption adjusts how a plan is built.
type PlanOption func(*planner)

type planner struct {
	mode    Mode
	labels  []string
	rowSeed func(workload string, row int) uint64
	mutate  func(*Cell)
}

// InMode selects the simulation driver for every cell (default Timed).
func InMode(m Mode) PlanOption {
	return func(p *planner) { p.mode = m }
}

// WithLabels overrides the auto-derived column labels. The number of
// labels must match the number of prefetcher specs.
func WithLabels(labels ...string) PlanOption {
	return func(p *planner) { p.labels = labels }
}

// WithRowSeed derives a per-workload seed (default: every cell inherits
// the session seed, keeping variant columns matched-pair comparable).
// The derivation must be deterministic for reproducible matrices; cells
// in the same row always share a seed so their traces stay identical
// across variants.
func WithRowSeed(fn func(workload string, row int) uint64) PlanOption {
	return func(p *planner) { p.rowSeed = fn }
}

// ForEachCell applies a final per-cell override hook — the escape hatch
// for irregular matrices (per-cell windows, config tweaks). It runs
// after all other options have resolved the cell.
func ForEachCell(fn func(*Cell)) PlanOption {
	return func(p *planner) { p.mutate = fn }
}

// planRow is one resolved plan row: a stationary spec or a scenario.
type planRow struct {
	name string
	spec trace.Spec
	scn  *trace.Scenario
}

// Plan builds a run matrix from named workloads crossed with prefetcher
// variants. Names resolve against the Table 1 workload specs first,
// then the built-in scenario suite, so stationary and phase-structured
// rows mix freely in one matrix. Unknown names are reported by the
// plan's Err and by Run.
func (l *Lab) Plan(workloads []string, prefs []sim.PrefSpec, opts ...PlanOption) *RunPlan {
	rows := make([]planRow, 0, len(workloads))
	for _, w := range workloads {
		if spec, err := trace.ByName(w); err == nil {
			rows = append(rows, planRow{name: spec.Name, spec: spec})
			continue
		}
		scn, err := trace.ScenarioByName(w)
		if err != nil {
			return &RunPlan{err: trace.UnknownNameError(w)}
		}
		s := scn
		rows = append(rows, planRow{name: scn.Name, scn: &s})
	}
	return l.plan(rows, prefs, opts...)
}

// PlanSpecs builds a run matrix from explicit workload specs (custom
// synthetic workloads) crossed with prefetcher variants.
func (l *Lab) PlanSpecs(specs []trace.Spec, prefs []sim.PrefSpec, opts ...PlanOption) *RunPlan {
	rows := make([]planRow, len(specs))
	for i, spec := range specs {
		rows[i] = planRow{name: spec.Name, spec: spec}
	}
	return l.plan(rows, prefs, opts...)
}

// PlanScenarios builds a run matrix from explicit phase-structured
// scenarios crossed with prefetcher variants: the scenario-diversity
// counterpart of PlanSpecs. Every cell's Results carry per-phase stat
// windows; functional cells sharing a scenario identity group in
// lockstep, exactly as spec rows do.
func (l *Lab) PlanScenarios(scns []trace.Scenario, prefs []sim.PrefSpec, opts ...PlanOption) *RunPlan {
	rows := make([]planRow, len(scns))
	for i := range scns {
		s := scns[i]
		rows[i] = planRow{name: s.Name, scn: &s}
	}
	return l.plan(rows, prefs, opts...)
}

// plan crosses resolved rows with prefetcher variants.
func (l *Lab) plan(rows []planRow, prefs []sim.PrefSpec, opts ...PlanOption) *RunPlan {
	pl := planner{}
	for _, opt := range opts {
		if opt != nil {
			opt(&pl)
		}
	}
	if len(rows) == 0 || len(prefs) == 0 {
		return &RunPlan{err: fmt.Errorf("lab: empty plan (%d workloads × %d variants)", len(rows), len(prefs))}
	}
	labels := pl.labels
	if labels == nil {
		labels = autoLabels(prefs)
	} else if len(labels) != len(prefs) {
		return &RunPlan{err: fmt.Errorf("lab: %d labels for %d variants", len(labels), len(prefs))}
	}
	p := &RunPlan{
		Workloads: make([]string, len(rows)),
		Labels:    labels,
		Cells:     make([]Cell, 0, len(rows)*len(prefs)),
	}
	for row, r := range rows {
		if r.scn != nil {
			if err := r.scn.Validate(); err != nil {
				return &RunPlan{err: err}
			}
		} else if err := r.spec.Validate(); err != nil {
			return &RunPlan{err: err}
		}
		p.Workloads[row] = r.name
		cfg := l.base
		if pl.rowSeed != nil {
			cfg.Seed = pl.rowSeed(r.name, row)
		}
		for col, ps := range prefs {
			c := Cell{
				Row: row, Col: col,
				Workload: r.name,
				Label:    labels[col],
				Spec:     r.spec,
				Scenario: r.scn,
				Pref:     ps,
				Mode:     pl.mode,
				Config:   cfg,
				Sampling: l.sampling,
			}
			if pl.mutate != nil {
				pl.mutate(&c)
			}
			// Normalize: K <= 1 is an exact run and must memoize as one,
			// and sampling is a timed-driver concept.
			if c.Mode == Functional || c.Sampling.Windows <= 1 {
				c.Sampling = sim.Sampling{}
			}
			p.Cells = append(p.Cells, c)
		}
	}
	return p
}

// autoLabels derives distinct column labels from prefetcher specs: the
// variant name, qualified by whichever knobs differ from defaults, with
// an ordinal suffix if still ambiguous.
func autoLabels(prefs []sim.PrefSpec) []string {
	labels := make([]string, len(prefs))
	seen := make(map[string]int, len(prefs))
	for i, ps := range prefs {
		lbl := ps.Kind.String()
		if ps.SampleProb > 0 {
			lbl += fmt.Sprintf("@p=%g", ps.SampleProb)
		}
		if ps.MaxDepth > 0 {
			lbl += fmt.Sprintf("@d=%d", ps.MaxDepth)
		}
		if ps.HistoryEntries > 0 {
			lbl += fmt.Sprintf("@h=%d", ps.HistoryEntries)
		}
		if ps.IndexEntries > 0 {
			lbl += fmt.Sprintf("@i=%d", ps.IndexEntries)
		}
		if n := seen[lbl]; n > 0 {
			labels[i] = fmt.Sprintf("%s#%d", lbl, n+1)
		} else {
			labels[i] = lbl
		}
		seen[lbl]++
	}
	return labels
}
