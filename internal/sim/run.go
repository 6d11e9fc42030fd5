package sim

import (
	"context"
	"fmt"

	"stms/internal/trace"
)

// Progress receives periodic completion callbacks from a running
// simulation: done is the number of trace records processed so far
// (across all cores, warm-up included), total the number expected.
// Callbacks arrive from the goroutine driving the simulation, at most
// once per pollEvery records; total is 0 when the run length is not
// known up front (frame sources that declare no per-core count).
type Progress func(done, total uint64)

// pollEvery is the record / event stride between context polls and
// progress callbacks: frequent enough that cancellation lands within a
// few microseconds of simulated work, rare enough to stay off profiles.
const pollEvery = 4096

// Mode selects the simulation driver.
type Mode int

// Drivers: the cycle-level timed simulation (speedups, traffic) and the
// fast zero-latency functional driver (coverage sweeps).
const (
	Timed Mode = iota
	Functional
)

// String names the mode.
func (m Mode) String() string {
	if m == Functional {
		return "functional"
	}
	return "timed"
}

// SourceRun bundles externally produced per-core frame sources — a
// stream.Inlet's Sources, typically, or a recorded trace file's
// per-core streams — with the trace identity their producer announced,
// so a remote stream simulates bit-identically to the same trace
// consumed locally. PerCore is the per-core record count the sources
// will deliver (0 when unknown); when set, the run budget must match it
// exactly — a budget shorter than the stream would leave trailing
// frames half-consumed and shift the frame accounting away from direct
// replay's.
type SourceRun struct {
	Spec    trace.Spec
	Marks   []trace.PhaseMark
	Sources []trace.FrameSource
	PerCore uint64
}

// validate checks the source bundle against the run configuration.
func (r SourceRun) validate(cfg Config) error {
	total := cfg.WarmRecords + cfg.MeasureRecords
	switch {
	case len(r.Sources) != cfg.Cores:
		return fmt.Errorf("sim: %d frame sources for %d cores", len(r.Sources), cfg.Cores)
	case r.PerCore > 0 && total != r.PerCore:
		return fmt.Errorf("sim: stream delivers %d records/core, run budget is %d (warm %d + measure %d); they must match exactly",
			r.PerCore, total, cfg.WarmRecords, cfg.MeasureRecords)
	}
	return nil
}

// Input describes the trace a run consumes: a workload spec or a
// phase-structured scenario generated live (both scaled by
// Config.Scale), a materialized tape, or externally produced frame
// sources. Generation is a pure function of (spec, seed, core), so the
// four give bit-identical Results for the same trace identity. An
// Input holds no per-run state: each run derives fresh per-core
// sources from it, except FromSources, whose sources are consumed by
// the one run they are handed to.
type Input struct {
	kind string // "spec" | "scenario" | "tape" | "external"
	spec trace.Spec
	scn  trace.Scenario
	tape *trace.Tape
	ext  SourceRun
}

// FromSpec generates the workload live; the checkpoint descriptor
// records the spec, so runs over it resume without outside help.
func FromSpec(spec trace.Spec) Input { return Input{kind: "spec", spec: spec} }

// FromScenario generates the phase-structured scenario live,
// materialized against the run's warm + measure budget. Results carry
// per-phase stat windows.
func FromScenario(scn trace.Scenario) Input { return Input{kind: "scenario", scn: scn} }

// FromTape replays a materialized columnar tape. It must have been
// built for the run's trace identity — same scaled spec, seed and core
// count, and a per-core budget covering warm + measure (exactly, for
// scenario tapes). Resuming a tape-backed checkpoint needs the tape
// again (CheckpointDesc.Input).
func FromTape(tape *trace.Tape) Input { return Input{kind: "tape", tape: tape} }

// FromSources consumes externally produced frame sources; the bundle's
// Spec and Marks stand in for the locally derived identity. Such runs
// cannot checkpoint or sample (the sources cannot be re-derived), and a
// source whose producer dies mid-run fails the run.
func FromSources(run SourceRun) Input { return Input{kind: "external", ext: run} }

// source is the checkpoint identity of the input's trace.
func (in Input) source() ckptSrc {
	switch in.kind {
	case "spec":
		return ckptSrc{kind: "spec", spec: in.spec}
	case "scenario":
		return ckptSrc{kind: "scenario", scn: in.scn}
	case "tape":
		return ckptSrc{kind: "tape", spec: in.tape.Spec()}
	}
	return ckptSrc{kind: in.kind}
}

// bound is an Input resolved against one run's configuration.
type bound struct {
	spec trace.Spec // the scaled spec the run reports
	src  ckptSrc
	// gens builds fresh per-core generators positioned skip records in
	// with exactly budget records left, plus the trace's phase marks;
	// nil for external sources. Sampled windows call it independently,
	// so it shares no mutable state across calls.
	gens func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error)
	ext  SourceRun
}

// bind resolves the input against cfg: the one place each kind of
// source is turned into a spec, a checkpoint identity and generators.
func (in Input) bind(cfg Config) (bound, error) {
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	switch in.kind {
	case "spec":
		scaled := in.spec.Scaled(cfg.Scale)
		return bound{spec: scaled, src: in.source(),
			gens: func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
				lib := trace.NewLibrary(scaled, cfg.Seed)
				gens := make([]trace.Generator, cfg.Cores)
				for i := range gens {
					g := trace.NewGenerator(lib, i, cfg.Seed)
					if err := drainRecords(g, skip); err != nil {
						return nil, nil, err
					}
					// The bound mirrors the tape path's CursorN, so frame
					// boundaries — and Results.Frames — are identical
					// across trace substrates.
					gens[i] = &trace.Limit{Gen: g, N: budget}
				}
				return gens, nil, nil
			}}, nil
	case "scenario":
		scaled := in.scn.Scaled(cfg.Scale)
		return bound{spec: scaled.EffectiveSpec(cfg.Cores, perCore), src: in.source(),
			gens: func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
				// Windows materialize against the whole run's budget so
				// phase boundaries stay where the exact run puts them.
				gens, marks, err := scaled.Generators(cfg.Seed, cfg.Cores, perCore)
				if err != nil {
					return nil, nil, err
				}
				for i, g := range gens {
					if err := drainRecords(g, skip); err != nil {
						return nil, nil, err
					}
					gens[i] = &trace.Limit{Gen: g, N: budget}
				}
				return gens, marks, nil
			}}, nil
	case "tape":
		tape := in.tape
		if err := tapeFits(cfg, tape, perCore); err != nil {
			return bound{}, err
		}
		return bound{spec: tape.Spec(), src: in.source(),
			gens: func(skip, budget uint64) ([]trace.Generator, []trace.PhaseMark, error) {
				// Cursors decode from the head of each core's column —
				// the tape has no random access — so very large K over
				// very long tapes pays quadratic decode work; decoding
				// is ~100× cheaper than detailed simulation.
				gens := make([]trace.Generator, cfg.Cores)
				for i := range gens {
					cu := tape.CursorN(i, skip+budget)
					if err := drainRecords(cu, skip); err != nil {
						return nil, nil, err
					}
					gens[i] = cu
				}
				return gens, tape.Marks(), nil
			}}, nil
	case "external":
		if err := in.ext.validate(cfg); err != nil {
			return bound{}, err
		}
		return bound{spec: in.ext.Spec, src: in.source(), ext: in.ext}, nil
	}
	return bound{}, fmt.Errorf("sim: empty Input (build one with FromSpec, FromScenario, FromTape or FromSources)")
}

// feed is one run's trace: per-core frame sources with the identity
// and phase marks they report.
type feed struct {
	spec  trace.Spec
	marks []trace.PhaseMark
	srcs  []trace.FrameSource
	total uint64 // records across all cores; 0 when unknown
	src   ckptSrc
}

// feed opens the bound input for one exact run.
func (b bound) feed(cfg Config) (feed, error) {
	if b.gens == nil {
		return feed{spec: b.spec, marks: b.ext.Marks, srcs: b.ext.Sources,
			total: b.ext.PerCore * uint64(cfg.Cores), src: b.src}, nil
	}
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	gens, marks, err := b.gens(0, perCore)
	if err != nil {
		return feed{}, err
	}
	return feed{spec: b.spec, marks: marks, srcs: frameSources(gens),
		total: perCore * uint64(cfg.Cores), src: b.src}, nil
}

// frameSources gives each core's generator a synchronous frame source.
func frameSources(gens []trace.Generator) []trace.FrameSource {
	srcs := make([]trace.FrameSource, len(gens))
	for i, g := range gens {
		srcs[i] = trace.Frames(g)
	}
	return srcs
}

// Run simulates the input under each prefetcher variant and returns
// one Results per variant, in ps order. Options select the driver
// (WithMode; timed by default), report progress, and checkpoint or
// resume the run.
//
// A functional group of several variants simulates the base hierarchy
// (L1s, L2, stride prefetcher) once and drives every variant from it;
// each Results is bit-identical to the variant's run alone. A timed run
// takes exactly one variant, and checkpoint and resume options need a
// group of one. The context (nil = never cancelled) is polled every
// few thousand records; on cancellation ctx.Err() is returned.
func Run(ctx context.Context, cfg Config, in Input, ps []PrefSpec, opts ...RunOption) ([]Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := gatherOpts(opts)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case len(ps) == 0:
		return nil, fmt.Errorf("sim: %s run without a prefetcher variant", o.mode)
	case len(ps) > 1 && o.mode == Timed:
		return nil, fmt.Errorf("sim: a timed run takes one prefetcher variant, not a group of %d", len(ps))
	case len(ps) > 1 && (o.active() || o.resume != nil):
		return nil, fmt.Errorf("sim: checkpoint and resume need a single variant, not a group of %d", len(ps))
	}
	b, err := in.bind(cfg)
	if err != nil {
		return nil, err
	}
	f, err := b.feed(cfg)
	if err != nil {
		return nil, err
	}
	if o.mode == Functional {
		return runFunctional(ctx, cfg, f, ps, &o)
	}
	r, err := runTimed(ctx, cfg, f, ps[0], &o)
	if err != nil {
		return nil, err
	}
	return []Results{r}, nil
}
