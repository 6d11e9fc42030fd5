// Package lab is the run-matrix execution engine behind the public
// stms.Lab API. It decomposes "run the paper" into an explicit
// lifecycle that callers compose:
//
//	session (New + options) → plan (workload × variant cross-product)
//	→ parallel execute (worker pool, context cancellation, streaming
//	progress events) → indexed Matrix of results with aggregation and
//	export helpers.
//
// A Lab memoizes cell results across plans (keyed by the fully resolved
// cell configuration), so matched runs — the stride-only baseline, the
// idealized prefetcher — are simulated once and reused by every figure
// that needs them, exactly as the paper's matched-pair methodology
// reuses checkpoints. Every simulation is single-threaded and
// deterministic, so the Matrix a plan produces is identical regardless
// of parallelism.
package lab

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"stms/internal/dist"
	"stms/internal/sim"
)

// Lab is a simulation session: a base system configuration, an
// execution-parallelism budget, an optional progress sink, a memo of
// completed cells, and a bounded store of materialized trace tapes
// shared by every cell with the same trace identity. A Lab is safe for
// concurrent use.
//
// A Lab normally simulates in-process; WithWorkers turns the same
// session into a coordinator that dispatches cells to stms-serve
// worker daemons (falling back to local execution when none are
// reachable), and WithManifest makes interrupted runs resumable.
type Lab struct {
	base     sim.Config
	sampling sim.Sampling
	par      int
	onEvent  func(ResultEvent)

	mu       sync.Mutex
	memo     map[string]*sim.Results
	memoSmp  map[string]*sim.SampledResults // sampled-cell estimates (session-local)
	partials map[string]string              // cellKey → checkpoint address of a partial cell
	tapes    *dist.Store                    // nil = tape caching disabled (live generation)
	simNS    int64                          // cumulative cell simulation time, excluding tape access

	tapeBytes    int64  // resolved WithTapeCache budget
	tapeDir      string // resolved WithTapeDir directory
	workerURLs   []string
	resilience   Resilience        // worker-pool deadlines, retries, breakers
	workerToken  string            // shared-secret bearer token for workers
	workerRT     http.RoundTripper // transport override (fault injection)
	remote       *remotePool       // nil = local execution
	manifestPath string
	manifest     *manifest // nil = no manifest
}

// Option configures a Lab at construction time.
type Option func(*Lab) error

// New creates a session over the paper's Table 1 system, modified by
// the given options. The resolved configuration is validated; option
// errors and configuration errors are returned, never panicked.
func New(opts ...Option) (*Lab, error) {
	l := &Lab{
		base:      sim.DefaultConfig(),
		par:       runtime.NumCPU(),
		memo:      make(map[string]*sim.Results),
		memoSmp:   make(map[string]*sim.SampledResults),
		partials:  make(map[string]string),
		tapeBytes: defaultTapeCacheBytes,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(l); err != nil {
			return nil, err
		}
	}
	if err := l.base.Validate(); err != nil {
		return nil, err
	}
	if l.tapeBytes > 0 || l.tapeDir != "" {
		l.tapes = dist.NewStore(l.tapeBytes, l.tapeDir)
	}
	if len(l.workerURLs) > 0 {
		l.remote = newRemotePool(l.workerURLs, l.resilience, l.workerToken, l.workerRT)
	}
	if l.manifestPath != "" {
		m, err := openManifest(l.manifestPath, l.memo, l.partials)
		if err != nil {
			return nil, err
		}
		l.manifest = m
	}
	return l, nil
}

// WithScale shrinks caches, meta-data tables and workload footprints
// together (1 = the paper's full scale).
func WithScale(scale float64) Option {
	return func(l *Lab) error {
		if scale <= 0 || scale > 1 {
			return fmt.Errorf("lab: scale must be in (0, 1], got %g", scale)
		}
		l.base.Scale = scale
		return nil
	}
}

// WithSeed sets the trace and sampling seed. Every cell of a plan
// inherits it by default, so runs of the same workload under different
// variants see identical traces (matched-pair methodology).
func WithSeed(seed uint64) Option {
	return func(l *Lab) error {
		l.base.Seed = seed
		return nil
	}
}

// WithWindows sets the per-core warm-up and measurement record counts.
func WithWindows(warm, measure uint64) Option {
	return func(l *Lab) error {
		if measure == 0 {
			return fmt.Errorf("lab: measurement window must be non-empty")
		}
		l.base.WarmRecords = warm
		l.base.MeasureRecords = measure
		return nil
	}
}

// WithSampling runs every timed cell as a K-window sampled simulation
// (sim.Sample) instead of an exact serial run: each cell's
// CellResult carries the stitched estimate as its Results plus the full
// SampledResults (per-window details, confidence intervals). Windows <= 1
// leaves cells exact; functional cells ignore sampling (it is a timed
// concept). Sampled cells are memoized under a distinct key — their
// estimates never collide with exact results — and always simulate
// locally (worker pools run exact cells only). A manifest persists only
// the stitched estimate, so a cell replayed from a prior session's
// manifest has Res but no interval details.
func WithSampling(smp sim.Sampling) Option {
	return func(l *Lab) error {
		if smp.Confidence != 0 && (smp.Confidence <= 0 || smp.Confidence >= 1) {
			return fmt.Errorf("lab: confidence level %g outside (0,1)", smp.Confidence)
		}
		l.sampling = smp
		return nil
	}
}

// WithParallelism bounds the worker pool executing plan cells
// (default: runtime.NumCPU()).
func WithParallelism(n int) Option {
	return func(l *Lab) error {
		if n < 1 {
			return fmt.Errorf("lab: parallelism must be >= 1, got %d", n)
		}
		l.par = n
		return nil
	}
}

// WithBaseConfig replaces the base system configuration wholesale.
// Apply it before WithScale/WithSeed/WithWindows if you want those to
// override fields of cfg.
func WithBaseConfig(cfg sim.Config) Option {
	return func(l *Lab) error {
		l.base = cfg
		return nil
	}
}

// WithTapeCache bounds the session's materialized-trace cache in bytes
// (default 512 MB). Cells sharing a trace identity — scaled spec, seed,
// cores, record budget — replay one columnar tape instead of
// re-deriving the record stream per variant; results are bit-identical
// either way. A budget of 0 disables tapes entirely (cells generate
// live, as the sim package's free functions do); negative budgets are
// invalid.
func WithTapeCache(maxBytes int64) Option {
	return func(l *Lab) error {
		if maxBytes < 0 {
			return fmt.Errorf("lab: tape cache budget must be >= 0, got %d", maxBytes)
		}
		l.tapeBytes = maxBytes
		return nil
	}
}

// WithTapeDir adds an on-disk tier to the session's tape store: a
// directory of STMSTAPE files named by trace-identity hash
// (dist.TapeKey). Tapes built by this session persist there across
// process restarts, and any session or stms-serve worker pointed at
// the same directory shares them. The memory tier (WithTapeCache) sits
// in front; results are bit-identical with or without the directory.
func WithTapeDir(dir string) Option {
	return func(l *Lab) error {
		l.tapeDir = dir
		return nil
	}
}

// WithWorkers turns the session into a coordinator: plan cells are
// dispatched to the stms-serve worker daemons at the given base URLs
// (e.g. "http://host:9090") instead of simulating in-process. Cells
// route to workers by tape-identity affinity, so every variant column
// of a matrix row lands on the worker that already holds the row's
// tape and each unique tape is built once fleet-wide; transport
// failures retry on the next worker, and when no worker is reachable
// the cell degrades gracefully to local execution. Results are
// bit-identical to an in-process run — remote execution is
// memoization over the network.
func WithWorkers(urls []string) Option {
	return func(l *Lab) error {
		for _, u := range urls {
			if u == "" {
				return fmt.Errorf("lab: empty worker URL")
			}
		}
		l.workerURLs = append([]string(nil), urls...)
		return nil
	}
}

// WithResilience replaces the coordinator's resilience policy —
// per-attempt deadlines, the event-stream stall window, retry rounds
// and backoff, and the per-worker circuit breaker thresholds. Zero
// fields keep their defaults; sessions without WithWorkers ignore it.
func WithResilience(r Resilience) Option {
	return func(l *Lab) error {
		l.resilience = r
		return nil
	}
}

// WithWorkerAuth attaches a shared-secret bearer token to every request
// the coordinator makes to its workers, matching stms-serve -token. A
// worker that rejects the token fails the cell deterministically (401
// is not a transport failure — retrying elsewhere would be rejected the
// same way).
func WithWorkerAuth(token string) Option {
	return func(l *Lab) error {
		l.workerToken = token
		return nil
	}
}

// WithWorkerTransport replaces the HTTP transport the coordinator's
// worker clients use — the hook the chaos tests inject faults through.
// The dial and header deadlines of WithResilience do not apply through
// a custom transport (wrap dist.BaseTransport to keep them); the stall
// detector still does.
func WithWorkerTransport(rt http.RoundTripper) Option {
	return func(l *Lab) error {
		l.workerRT = rt
		return nil
	}
}

// WithManifest makes runs resumable: every completed cell is appended
// to the versioned JSON-lines manifest at path, and a new session
// given the same path preloads those results into its memo — so
// restarting a killed coordinator skips every finished cell and
// completes the matrix instead of re-running it. Coordinator sessions
// also record the checkpoint address of any cell whose worker died
// mid-run, so the restarted session fetches that checkpoint and
// resumes the partial cell instead of starting it over. Results
// round-trip the manifest losslessly; a resumed matrix is
// bit-identical to an uninterrupted one.
func WithManifest(path string) Option {
	return func(l *Lab) error {
		if path == "" {
			return fmt.Errorf("lab: empty manifest path")
		}
		l.manifestPath = path
		return nil
	}
}

// WithProgress registers a sink for ResultEvents (cell started /
// finished / failed). Events are delivered serialized, from worker
// goroutines, while Run executes.
func WithProgress(fn func(ResultEvent)) Option {
	return func(l *Lab) error {
		l.onEvent = fn
		return nil
	}
}

// BaseConfig returns the session's resolved base system configuration.
func (l *Lab) BaseConfig() sim.Config { return l.base }

// Parallelism returns the session's worker-pool bound.
func (l *Lab) Parallelism() int { return l.par }

// cellKey identifies a cell by everything that determines its result:
// the driver mode, the fully resolved workload (spec or scenario),
// system config and prefetcher spec. Deterministic simulation makes
// memoization by this key exact.
func cellKey(c *Cell) string {
	ps := c.Pref
	scfg := ""
	if ps.STMSCfg != nil {
		scfg = fmt.Sprintf("%+v", *ps.STMSCfg)
	}
	ecfg := ""
	if ps.Engine != nil {
		ecfg = fmt.Sprintf("%+v", *ps.Engine)
	}
	scn := ""
	if c.Scenario != nil {
		scn = c.Scenario.Key()
	}
	key := fmt.Sprintf("%d|spec=%+v|scn=%s|cfg=%+v|k=%d|d=%d|h=%d|i=%d|p=%g|s=%s|e=%s",
		c.Mode, c.Spec, scn, c.Config, ps.Kind, ps.MaxDepth,
		ps.HistoryEntries, ps.IndexEntries, ps.SampleProb, scfg, ecfg)
	// Sampled cells key (and memoize) distinctly: an estimate must never
	// be served where an exact result was asked for, or vice versa.
	// Exact cells keep the historical key so prior-session manifests
	// stay valid.
	if c.Sampling.Windows > 1 {
		key += fmt.Sprintf("|smp=%+v", c.Sampling)
	}
	return key
}

// MemoSize reports how many distinct cells the session has memoized.
func (l *Lab) MemoSize() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.memo)
}

func (l *Lab) lookup(key string) (*sim.Results, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.memo[key]
	return r, ok
}

func (l *Lab) store(key string, r *sim.Results) {
	l.mu.Lock()
	fresh := l.memo[key] == nil
	l.memo[key] = r
	delete(l.partials, key) // completed supersedes partial
	l.mu.Unlock()
	if fresh && l.manifest != nil {
		l.manifest.append(key, r)
	}
}

func (l *Lab) lookupSmp(key string) (*sim.SampledResults, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sr, ok := l.memoSmp[key]
	return sr, ok
}

// storeSmp memoizes a sampled estimate: the full SampledResults for the
// session, the stitched Results through the plain memo (and manifest,
// when one is attached) under the same sampled key.
func (l *Lab) storeSmp(key string, sr *sim.SampledResults) {
	l.mu.Lock()
	l.memoSmp[key] = sr
	l.mu.Unlock()
	l.store(key, &sr.Results)
}

// partialCkpt returns the checkpoint address recorded for a cell by a
// prior (interrupted) session, or "".
func (l *Lab) partialCkpt(key string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.partials[key]
}

// recordPartial remembers — in memory and in the manifest — that a
// checkpoint for the cell exists at the given address, so a restarted
// coordinator resumes the cell instead of starting it over. Duplicate
// records for the same (cell, address) pair are suppressed.
func (l *Lab) recordPartial(key, ckptKey string) {
	l.mu.Lock()
	dup := l.partials[key] == ckptKey
	l.partials[key] = ckptKey
	l.mu.Unlock()
	if !dup && l.manifest != nil {
		l.manifest.appendPartial(key, ckptKey)
	}
}
