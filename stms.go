// Package stms is a Go reproduction of "Practical Off-chip Meta-data for
// Temporal Memory Streaming" (Wenisch, Ferdman, Ailamaki, Falsafi,
// Moshovos — HPCA 2009): Sampled Temporal Memory Streaming, an
// address-correlating prefetcher whose predictor meta-data lives entirely
// in main memory, made practical by hash-based lookup, probabilistic
// update sampling, and a split index/history organization.
//
// The package front-door is the Lab session API, which decomposes "run
// the paper" into an explicit lifecycle:
//
//	session → plan → parallel execute → stream results
//
// A Lab is constructed with functional options; Plan crosses workloads
// with prefetcher variants into a RunPlan; Run executes the cells over
// a worker pool with deterministic per-cell seeding, context
// cancellation, and streaming progress events, returning an indexed
// Matrix of Results with aggregation and JSON/CSV export helpers.
//
// # Quick start
//
//	lab, err := stms.New(stms.WithScale(0.125), stms.WithSeed(42))
//	if err != nil {
//		log.Fatal(err)
//	}
//	plan := lab.Plan(stms.FigureEight(), []stms.PrefSpec{
//		{Kind: stms.None}, {Kind: stms.Ideal}, {Kind: stms.STMS},
//	})
//	m, err := lab.Run(context.Background(), plan)
//	if err != nil {
//		log.Fatal(err)
//	}
//	t, _ := m.SpeedupTable("baseline")
//	fmt.Print(t)
//
// The layers underneath:
//
//   - the STMS prefetcher itself and the idealized/comparator predictors
//     (internal/core, internal/prefetch/...);
//   - a deterministic 4-core CMP simulator with the paper's Table 1
//     system model (internal/sim) and synthetic workloads calibrated to
//     the paper's workload suite (internal/trace);
//   - the run-matrix execution engine (internal/lab) and the experiment
//     harness regenerating every table and figure of the paper's
//     evaluation on top of it (internal/expt).
//
// See DESIGN.md for the Lab/Plan/Matrix lifecycle, the package
// inventory and the per-experiment index, and README.md for a runnable
// tour.
package stms

import (
	"context"
	"io"
	"net/http"

	"stms/internal/core"
	"stms/internal/dist"
	"stms/internal/expt"
	"stms/internal/lab"
	"stms/internal/prefetch"
	"stms/internal/sim"
	"stms/internal/stats"
	"stms/internal/trace"
)

// Lab is a simulation session: base system configuration, parallelism
// budget, progress sink, and a memo of completed runs. Construct with
// New; build cross-product run matrices with Plan/PlanSpecs; execute
// with Run. Safe for concurrent use.
type Lab = lab.Lab

// Option configures a Lab at construction.
type Option = lab.Option

// RunPlan is an executable workload × variant cross-product built by
// Lab.Plan or Lab.PlanSpecs.
type RunPlan = lab.RunPlan

// PlanOption adjusts plan construction (driver mode, column labels,
// per-row seeding, per-cell overrides).
type PlanOption = lab.PlanOption

// Cell is one unit of work in a plan: a workload under a prefetcher
// variant with its fully resolved configuration.
type Cell = lab.Cell

// Matrix is the indexed result of running a plan: rows are workloads,
// columns are prefetcher variants.
type Matrix = lab.Matrix

// CellResult is one executed cell of a Matrix.
type CellResult = lab.CellResult

// ResultEvent streams per-cell progress (started/finished/failed) out
// of Lab.Run to the sink registered with WithProgress.
type ResultEvent = lab.ResultEvent

// EventKind classifies a ResultEvent.
type EventKind = lab.EventKind

// Mode selects the simulation driver for a plan's cells.
type Mode = sim.Mode

// Result-event kinds and driver modes, re-exported for plan options and
// progress sinks.
const (
	CellStarted  = lab.CellStarted
	CellFinished = lab.CellFinished
	CellFailed   = lab.CellFailed

	Timed      = sim.Timed
	Functional = sim.Functional
)

// New creates a session over the paper's Table 1 system, modified by
// options. Option and configuration errors are returned, not panicked.
func New(opts ...Option) (*Lab, error) { return lab.New(opts...) }

// WithScale shrinks caches, meta-data tables and workload footprints
// together (1 = the paper's full scale).
func WithScale(scale float64) Option { return lab.WithScale(scale) }

// WithSeed sets the trace and sampling seed; all cells of a plan
// inherit it, keeping variant columns matched-pair comparable.
func WithSeed(seed uint64) Option { return lab.WithSeed(seed) }

// WithWindows sets the per-core warm-up and measurement record counts.
func WithWindows(warm, measure uint64) Option { return lab.WithWindows(warm, measure) }

// WithParallelism bounds the worker pool executing plan cells
// (default: runtime.NumCPU()). Results are identical regardless.
func WithParallelism(n int) Option { return lab.WithParallelism(n) }

// WithBaseConfig replaces the base system configuration wholesale.
func WithBaseConfig(cfg Config) Option { return lab.WithBaseConfig(cfg) }

// WithTapeCache bounds the session's materialized-trace cache in bytes
// (default 512 MB; 0 disables tape caching). Cells sharing a trace
// identity — scaled spec, seed, cores, record budget — replay one
// columnar tape instead of re-deriving the record stream per variant;
// results are bit-identical either way.
func WithTapeCache(maxBytes int64) Option { return lab.WithTapeCache(maxBytes) }

// TapeStats reports a session's tape-cache accounting and its
// generate-vs-simulate wall-time split (Lab.TapeStats).
type TapeStats = lab.TapeStats

// WithTapeDir adds an on-disk tier to the session's tape store: a
// directory of STMSTAPE files named by trace-identity hash, shared
// across sessions, process restarts, and any stms-serve worker pointed
// at the same directory. Results are bit-identical with or without it.
func WithTapeDir(dir string) Option { return lab.WithTapeDir(dir) }

// WithWorkers turns the session into a coordinator: plan cells are
// dispatched to the stms-serve worker daemons at the given base URLs,
// routed by tape-identity affinity so each unique tape is built once
// fleet-wide, with transport failures retried on other workers and
// graceful degradation to local execution when none is reachable. The
// Matrix is bit-identical to an in-process run.
func WithWorkers(urls []string) Option { return lab.WithWorkers(urls) }

// Resilience bounds a coordinator's patience with a misbehaving worker
// pool: per-attempt dial/header deadlines, the event-stream stall
// window, retry rounds with full-jitter exponential backoff, and the
// per-worker circuit breaker thresholds. Zero fields mean defaults.
type Resilience = lab.Resilience

// WithResilience replaces the coordinator's resilience policy.
func WithResilience(r Resilience) Option { return lab.WithResilience(r) }

// WithWorkerAuth attaches a shared-secret bearer token to every request
// the coordinator makes to its workers, matching stms-serve -token.
func WithWorkerAuth(token string) Option { return lab.WithWorkerAuth(token) }

// WithWorkerTransport replaces the HTTP transport the coordinator's
// worker clients use — the hook chaos tests inject deterministic
// faults through (see dist.Injector).
func WithWorkerTransport(rt http.RoundTripper) Option { return lab.WithWorkerTransport(rt) }

// WithManifest makes runs resumable: completed cells are appended to
// the versioned JSON-lines manifest at path, and a session reopened on
// it preloads them into the memo, so a restarted coordinator skips
// every finished cell.
func WithManifest(path string) Option { return lab.WithManifest(path) }

// RemoteStats reports a coordinator session's dispatch accounting
// (Lab.RemoteStats): remote vs local cells, transport retries, breaker
// trips, stall aborts, backoff waits, and how worker tapes were
// satisfied.
type RemoteStats = lab.RemoteStats

// TapeStore is the content-addressed two-tier (memory LRU → on-disk
// STMSTAPE directory) tape store underlying lab sessions and worker
// daemons. Tapes are addressed by the hash of their trace identity,
// and every receiving tier re-derives the address before trusting a
// tape, so corrupt files are rebuilt rather than served.
type TapeStore = dist.Store

// NewTapeStore creates a tape store with the given memory budget and
// disk directory ("" disables the disk tier).
func NewTapeStore(memBytes int64, dir string) *TapeStore { return dist.NewStore(memBytes, dir) }

// WorkerConfig configures a worker daemon (name, tape store, sibling
// workers to fetch tapes from, concurrent-job bound).
type WorkerConfig = dist.ServerConfig

// WorkerServer is the stms-serve worker daemon: an http.Handler
// executing cell jobs over a content-addressed tape store, streaming
// progress as JSON lines. Mount it on any http.Server; stms-serve
// -worker is exactly that plus flags.
type WorkerServer = dist.Server

// NewWorkerServer constructs a worker daemon handler.
func NewWorkerServer(cfg WorkerConfig) *WorkerServer { return dist.NewServer(cfg) }

// WithProgress registers a serialized sink for cell lifecycle events.
func WithProgress(fn func(ResultEvent)) Option { return lab.WithProgress(fn) }

// InMode selects the simulation driver for every cell of a plan
// (default Timed).
func InMode(m Mode) PlanOption { return lab.InMode(m) }

// WithLabels overrides a plan's auto-derived column labels.
func WithLabels(labels ...string) PlanOption { return lab.WithLabels(labels...) }

// WithRowSeed derives a per-workload seed; cells in a row always share
// one so traces stay identical across variant columns.
func WithRowSeed(fn func(workload string, row int) uint64) PlanOption {
	return lab.WithRowSeed(fn)
}

// ForEachCell applies a final per-cell override hook to a plan.
func ForEachCell(fn func(*Cell)) PlanOption { return lab.ForEachCell(fn) }

// Config is the system under test (Table 1 defaults via DefaultConfig).
type Config = sim.Config

// PrefSpec selects and parameterizes the temporal prefetcher variant.
type PrefSpec = sim.PrefSpec

// Results reports one simulation run.
type Results = sim.Results

// Overhead is Figure 7's traffic-overhead breakdown.
type Overhead = sim.Overhead

// Kind enumerates prefetcher variants.
type Kind = sim.Kind

// Prefetcher variants: the stride-only baseline, idealized TMS with magic
// on-chip meta-data, practical STMS, and the published comparators.
const (
	None   = sim.None
	Ideal  = sim.Ideal
	STMS   = sim.STMS
	TSE    = sim.TSE
	EBCP   = sim.EBCP
	ULMT   = sim.ULMT
	Markov = sim.Markov
)

// WorkloadSpec describes one synthetic workload.
type WorkloadSpec = trace.Spec

// Scenario is a phase-structured, possibly multi-programmed workload:
// an ordered list of phases (each a WorkloadSpec plus a duration, with
// optional per-core mixes, gradual drift, and stream reseeding)
// materialized into one deterministic per-core record stream. Plans
// accept scenarios as rows (Lab.PlanScenarios, or built-in scenario
// names in Lab.Plan), results carry per-phase stat windows, and
// scenario tapes replay bit-identically to live generation.
type Scenario = trace.Scenario

// Phase is one epoch of a Scenario: a spec (or per-core mix) held for
// a duration, optionally drifting toward a second spec.
type Phase = trace.Phase

// PhaseMark locates one phase inside a materialized trace (per-core
// record offset of its start).
type PhaseMark = trace.PhaseMark

// PhaseWindow is the slice of a run's counters attributable to one
// scenario phase (Results.Phases).
type PhaseWindow = sim.PhaseWindow

// Scenarios returns the built-in phase-structured stress suite
// (phase-flip, stream-decay, oltp-antagonist, migratory-handoff, ...).
func Scenarios() []Scenario { return trace.Scenarios() }

// ScenarioNames lists the built-in scenario names in suite order.
func ScenarioNames() []string { return trace.ScenarioNames() }

// ScenarioByName returns the built-in scenario with the given name; an
// unknown name reports the nearest match and the full valid list.
func ScenarioByName(name string) (Scenario, error) { return trace.ScenarioByName(name) }

// ParseScenario decodes and validates a scenario from its versioned
// JSON format (the format stms-trace -scenario reads and
// -scenario-out writes).
func ParseScenario(r io.Reader) (Scenario, error) { return trace.ParseScenario(r) }

// Stationary wraps a plain spec as a single-phase scenario; its record
// streams are bit-identical to the spec's own.
func Stationary(name string, spec WorkloadSpec) Scenario { return trace.Stationary(name, spec) }

// Sequence builds a scenario from explicit phases.
func Sequence(name string, phases ...Phase) Scenario { return trace.Sequence(name, phases...) }

// MixOf builds a single-phase multi-programmed scenario: core c runs
// specs[c % len(specs)] for the whole run.
func MixOf(name string, specs ...WorkloadSpec) Scenario { return trace.MixOf(name, specs...) }

// Antagonist builds a single-phase scenario where every fourth core
// runs the antagonist spec and the rest run base.
func Antagonist(name string, base, antagonist WorkloadSpec) Scenario {
	return trace.Antagonist(name, base, antagonist)
}

// Drift builds a scenario that gradually interpolates from one spec to
// another over most of the run, then holds the end state.
func Drift(name string, from, to WorkloadSpec, steps int) Scenario {
	return trace.Drift(name, from, to, steps)
}

// Tape is a columnar (structure-of-arrays) materialization of one
// bounded multi-core trace: built once per trace identity, replayed any
// number of times through zero-allocation cursors. Lab sessions
// materialize and share tapes automatically; NewTape and FromTape
// expose the substrate for callers orchestrating their own runs or
// persisting tapes with trace.WriteTape/ReadTape via the stms-trace
// command.
type Tape = trace.Tape

// NewTape materializes perCore records for each of cores generators of
// the (already scaled) spec at seed, generating per-core segments in
// parallel. Replaying the tape is bit-identical to live generation.
func NewTape(spec WorkloadSpec, seed uint64, cores int, perCore uint64) *Tape {
	return trace.NewTape(spec, seed, cores, perCore)
}

// NewScenarioTape materializes a (already scaled) phase-structured
// scenario as a columnar tape, recording phase marks; replay —
// including through the on-disk STMSTAPE format — is bit-identical to
// live scenario generation.
func NewScenarioTape(scn Scenario, seed uint64, cores int, perCore uint64) *Tape {
	return trace.NewScenarioTape(scn, seed, cores, perCore)
}

// Frame is a reusable structure-of-arrays batch of trace records — the
// unit the simulation drivers consume (DESIGN.md §10). Custom consumers
// of workload streams can use FillFrame/Frames/PipelinedFrames to read
// any generator block-at-a-time instead of record-at-a-time.
type Frame = trace.Frame

// FrameReader is the batched fast path implemented by every built-in
// generator: ReadFrame fills up to Frame.Cap records and returns the
// count (0 = dry), producing exactly the sequence Next would.
type FrameReader = trace.FrameReader

// FrameSource hands out successive frames of a record stream; see
// trace.Frames (synchronous) and trace.PipelinedFrames (decode
// overlapped with consumption on a producer goroutine).
type FrameSource = trace.FrameSource

// FrameStats counts frames and records consumed from a FrameSource;
// Results.Frames reports the per-run totals (identical between live
// generation and tape replay).
type FrameStats = trace.FrameStats

// NewFrame returns an empty frame with the default capacity
// (trace.FrameCap records).
func NewFrame() *Frame { return trace.NewFrame() }

// FillFrame fills f from any generator, using its ReadFrame fast path
// when it has one; returns the record count (0 = dry).
func FillFrame(g trace.Generator, f *Frame) int { return trace.FillFrame(g, f) }

// Frames returns a synchronous frame source over g.
func Frames(g trace.Generator) FrameSource { return trace.Frames(g) }

// PipelinedFrames returns a double-buffered frame source: a producer
// goroutine fills the next frame while the caller works on the current
// one. The frame sequence is identical to Frames(g); Close it unless it
// was drained to nil.
func PipelinedFrames(g trace.Generator) FrameSource { return trace.PipelinedFrames(g) }

// STMSConfig sizes an STMS instance (history buffers, index table,
// sampling probability, bucket buffer).
type STMSConfig = core.Config

// EngineConfig tunes the shared stream-following engine.
type EngineConfig = prefetch.EngineConfig

// Options control experiment scale for the harness.
type Options = expt.Options

// DefaultConfig returns the paper's Table 1 system at full scale.
func DefaultConfig() Config { return sim.DefaultConfig() }

// DefaultSTMSConfig returns the paper's STMS sizing for the given core
// count (8 MB/core history, 16 MB index, 12-way buckets, 12.5% sampling,
// 8 KB bucket buffer).
func DefaultSTMSConfig(cores int) STMSConfig { return core.DefaultConfig(cores) }

// Workload returns the named workload specification at full (paper) scale.
// Names: web-apache, web-zeus, oltp-db2, oltp-oracle, dss-qry2, dss-qry17,
// sci-em3d, sci-moldyn, sci-ocean.
func Workload(name string) (WorkloadSpec, error) { return trace.ByName(name) }

// Workloads lists all workload names.
func Workloads() []string { return trace.Names() }

// FigureEight returns the eight workloads in the paper's figure order.
func FigureEight() []string { return trace.FigureEight() }

// Commercial returns the commercial (web, OLTP, DSS) workload names.
func Commercial() []string { return trace.Commercial() }

// Input describes the trace a single run consumes: a workload spec or
// scenario generated live (scaled by Config.Scale), a materialized
// tape, or externally produced frame sources. Prefer Lab plans for
// matrices of runs — they parallelize, memoize, and share tapes.
type Input = sim.Input

// FromSpec generates the workload live.
func FromSpec(spec WorkloadSpec) Input { return sim.FromSpec(spec) }

// FromScenario generates the phase-structured scenario live,
// materialized against the warm + measure budget; Results carry
// per-phase windows.
func FromScenario(scn Scenario) Input { return sim.FromScenario(scn) }

// FromTape replays a materialized tape whose identity matches the run's
// configuration (same seed, cores, and a record budget covering warm +
// measure); Results are bit-identical to FromSpec with the tape's spec.
func FromTape(tape *Tape) Input { return sim.FromTape(tape) }

// FromSources consumes externally supplied per-core frame sources. A
// source whose producer dies mid-run surfaces that failure as an error,
// never as a short clean result.
func FromSources(run SourceRun) Input { return sim.FromSources(run) }

// Run executes the cycle-level simulation of the input under one
// prefetcher variant and returns measurement-window results (IPC, MLP,
// coverage, per-class DRAM traffic). The context is polled every few
// thousand records; on cancellation ctx.Err() is returned.
func Run(ctx context.Context, cfg Config, in Input, ps PrefSpec) (Results, error) {
	return one(sim.Run(ctx, cfg, in, []PrefSpec{ps}))
}

// RunTimedTapeCtx is Run over FromTape(tape). It stays for the
// benchmark module (bench/), which calls it by name.
func RunTimedTapeCtx(ctx context.Context, cfg Config, tape *Tape, ps PrefSpec) (Results, error) {
	return Run(ctx, cfg, FromTape(tape), ps)
}

// RunFunctionalTapeCtx is RunTimedTapeCtx on the zero-latency
// functional driver (timing fields stay zero). It stays for the
// benchmark module (bench/), which calls it by name.
func RunFunctionalTapeCtx(ctx context.Context, cfg Config, tape *Tape, ps PrefSpec) (Results, error) {
	return one(sim.Run(ctx, cfg, sim.FromTape(tape), []PrefSpec{ps}, sim.WithMode(sim.Functional)))
}

// RunFunctionalSourcesCtx is RunFunctionalTapeCtx over FromSources(run).
// It stays for the benchmark module (bench/), which calls it by name.
func RunFunctionalSourcesCtx(ctx context.Context, cfg Config, run SourceRun, ps PrefSpec) (Results, error) {
	return one(sim.Run(ctx, cfg, sim.FromSources(run), []PrefSpec{ps}, sim.WithMode(sim.Functional)))
}

// one unwraps the Results of a single-variant sim.Run.
func one(rs []Results, err error) (Results, error) {
	if err != nil {
		return Results{}, err
	}
	return rs[0], nil
}

// SourceRun bundles externally supplied per-core frame sources — a live
// STMSWIRE stream, an imported trace, anything implementing
// trace.FrameSource — with the already-scaled spec they carry
// (DESIGN.md §14). Results are bit-identical to the equivalent direct
// run when the sources deliver the same record stream.
type SourceRun = sim.SourceRun

// Sampling configures a K-window sampled simulation (DESIGN.md §13):
// the measurement window is split into Windows equal slices, each
// warmed by a fast meta-data replay of its prefix plus a short
// full-fidelity functional pass (FuncWarmup records) and a timed
// warm-up (Warmup records), then measured concurrently. Windows <= 1
// degenerates to the exact serial run.
type Sampling = sim.Sampling

// SampledResults joins a sampled run: the stitched estimate in Results
// form, the per-window details, and per-metric confidence intervals.
type SampledResults = sim.SampledResults

// WindowStat is one measured window of a sampled run.
type WindowStat = sim.WindowStat

// SampledCI carries the Student-t confidence intervals of the headline
// metrics (IPC, MLP, DRAM utilization, coverage) across windows.
type SampledCI = sim.SampledCI

// CI is one confidence interval (mean, bounds, level, strata count).
type CI = stats.CI

// WithSampling makes every timed cell of the session's plans run as a
// K-window sampled estimate (Cell.Sampling; per-cell overrides via
// ForEachCell). Sampled cells memoize and export separately from their
// exact counterparts and carry SampledResults with error bars.
func WithSampling(smp Sampling) Option { return lab.WithSampling(smp) }

// Sample executes the K-window sampled estimate of the timed run of
// the input: the windows warm and measure concurrently, and the result
// carries per-window stats and confidence intervals. K <= 1 returns the
// exact serial run (Exact = true, point intervals).
func Sample(ctx context.Context, cfg Config, in Input, ps PrefSpec, smp Sampling) (SampledResults, error) {
	return sim.Sample(ctx, cfg, in, ps, smp)
}

// DefaultOptions returns the standard experiment scale for the harness.
func DefaultOptions() Options { return expt.DefaultOptions() }

// RunExperiment regenerates one paper artifact by ID (table1, table2,
// fig1l, fig1r, fig4, fig5l, fig5r, fig6l, fig6r, fig7, fig8, fig9, abl,
// or all), writing the tables to w. The harness executes each figure's
// run matrix across o.Parallel workers.
func RunExperiment(id string, o Options, w io.Writer) error {
	return expt.NewRunner(o).ByID(id, w)
}

// ExperimentIDs lists the experiment identifiers in paper order.
func ExperimentIDs() []string { return expt.IDs() }
