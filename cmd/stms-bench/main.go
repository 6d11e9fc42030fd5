// Command stms-bench regenerates the paper's tables and figures over the
// shared lab session, fanning each experiment's run matrix out across a
// worker pool.
//
// Usage:
//
//	stms-bench [-run all|table1|table2|fig1l|fig1r|fig4|fig5l|fig5r|fig6l|fig6r|fig7|fig8|fig9|abl]
//	           [-scale 0.125] [-seed 42] [-warm 80000] [-measure 120000]
//	           [-par 0] [-out results.txt] [-json bench.json]
//	           [-workers http://host1:9090,http://host2:9090]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Sizes are scaled together (caches, meta-data tables, workload
// footprints), preserving the paper's size relationships; -scale 1 runs
// paper-scale meta-data (needs long traces to warm: raise -warm and
// -measure accordingly). -par bounds the matrix worker pool (0 = all
// CPUs); results are identical regardless.
//
// With -workers, the headline matrix timed for -json is dispatched to
// the given stms-serve worker daemons instead of simulating in-process
// (results are bit-identical; throughput then measures the fleet).
//
// With -json, a machine-readable benchmark document is also written
// (schema v7): the run options; a reconciled wall-time attribution —
// the experiment suite and the freshly-timed headline matrix each split
// into trace materialization, simulation, and explicit residue
// (report/plan/memo overhead) so elapsed_ms is the sum of its parts;
// tape cache behaviour (hits/misses/builds/evictions/bytes); frame
// pipeline counters (frames_decoded/frame_records, also per cell);
// simulator throughput (records/sec) and allocation totals for the
// headline matrix; and the workload × {baseline, ideal, stms} matrix
// with per-cell IPC, coverage and speedup inputs — the format the
// BENCH_PR*.json trajectory snapshots capture. -cpuprofile/-memprofile
// write pprof profiles of the whole invocation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"stms"
	"stms/internal/expt"
	"stms/internal/stream"
	"stms/internal/trace"
)

func main() {
	run := flag.String("run", "all", "experiment id (or 'all')")
	scale := flag.Float64("scale", 0.125, "system scale factor")
	seed := flag.Uint64("seed", 42, "trace and sampling seed")
	warm := flag.Uint64("warm", 80_000, "warm-up records per core")
	measure := flag.Uint64("measure", 120_000, "measured records per core")
	par := flag.Int("par", 0, "matrix worker pool size (0 = all CPUs)")
	out := flag.String("out", "", "also write results to this file")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark document to this file")
	workers := flag.String("workers", "", "comma-separated stms-serve worker URLs for the headline matrix")
	windows := flag.Int("windows", 4, "window count K for the sampled-simulation characterization in -json")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range expt.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	o := expt.Options{Scale: *scale, Seed: *seed, Warm: *warm, Measure: *measure, Parallel: *par}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	r := expt.NewRunner(o)
	if err := r.ByID(*run, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "(%s, scale=%g, seed=%d, %d+%d records/core)\n",
		elapsed.Round(time.Millisecond), o.Scale, o.Seed, o.Warm, o.Measure)

	if *jsonOut != "" {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if err := writeBenchJSON(*jsonOut, r, o, *run, elapsed, urls, *windows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// benchDoc is the machine-readable trajectory record: enough to compare
// runs across commits without parsing the text tables. RecordsPerSec and
// TotalAllocs capture simulator throughput and allocation behaviour so
// future PRs can track the perf trajectory (BENCH_PR2.json onward are
// the snapshots).
//
// Schema v4 makes the wall-time accounting reconcile: v3's elapsed_ms
// (the whole experiment-suite run) and generate_ms/simulate_ms (the
// separately-timed headline matrix) measured two different things, so
// most of the elapsed time was unattributed. v4 reports the two timed
// segments explicitly — the experiment suite over the shared session
// (experiments_ms, split into its own tape builds, cell simulation, and
// the remainder: report building, plan setup, memo lookups) and the
// freshly-timed headline matrix (matrix_wall_ms, same split) — with
// elapsed_ms their sum. v4 also counts the frame pipeline's work
// (frames_decoded/frame_records aggregated here, per-cell under each
// matrix cell's Frames), so a run that silently fell back off the
// batched path is visible.
//
// Schema v5 adds distributed-lab accounting for -workers runs:
// worker_count (configured pool size), remote_cells (headline-matrix
// cells completed by a worker rather than in-process), and
// tape_fetches (remote cells whose tape crossed the network from a
// peer worker instead of being rebuilt). A purely local run reports
// zeroes, keeping v4 documents comparable.
//
// Schema v6 adds the coordinator's resilience counters:
// remote_retries (transport failures retried elsewhere or later),
// breaker_trips (per-worker circuit breakers tripped open),
// stall_aborts (event streams cut by the stall detector), and
// backoff_waits (inter-round backoff sleeps). All four are zero on
// purely local runs and on healthy worker pools, so v5 documents stay
// comparable.
//
// Schema v7 adds checkpoint accounting: ckpt_writes (checkpoints
// workers wrote for this run's cells), ckpt_resumes (cells that
// resumed mid-run from an exchanged checkpoint instead of starting
// cold), ckpt_bytes (total sealed checkpoint bytes written), and
// resume_ms (the worker-measured simulation wall spent inside resumed
// runs — the split that shows how much of the matrix was salvaged
// rather than recomputed). All zero on purely local runs and on pools
// without -checkpoint-every, so v6 documents stay comparable.
//
// Schema v8 adds sampled-simulation characterization (DESIGN.md §13):
// one headline cell (web-apache × stms) re-estimated as a K-window
// sampled run timed back-to-back against its exact serial twin —
// windows (K), sample_err_pct (the worst relative error across IPC,
// MLP, DRAM utilization and coverage, in percent), and
// speedup_vs_serial (serial wall / sampled wall; below 1 on a
// single-CPU host, approaching min(K, cores) with idle cores). The
// error is deterministic for a given configuration; the speedup is a
// measurement of this host.
//
// Schema v9 adds streaming-ingestion characterization (DESIGN.md §14):
// the headline workload is streamed to the timed driver over a loopback
// STMSWIRE connection with one deliberately injected mid-stream
// disconnect, and the results are required to match the direct run
// bit-for-bit. streamed_cells counts cells delivered this way (and
// verified identical), stream_reconnects the transport
// re-establishments survived, and stream_frames the frame messages the
// outlet wrote (replays included, so it exceeds the frame count by the
// resume overlap). All zero would mean the streaming path was skipped;
// v8 documents stay comparable.
type benchDoc struct {
	Schema     string  `json:"schema"`
	Experiment string  `json:"experiment"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Warm       uint64  `json:"warm_records"`
	Measure    uint64  `json:"measure_records"`

	// Whole-invocation wall time: experiments_ms + matrix_wall_ms.
	ElapsedMS float64 `json:"elapsed_ms"`

	// Experiment suite (shared session, memoized across figures).
	ExperimentsMS   float64 `json:"experiments_ms"`
	SuiteGenerateMS float64 `json:"suite_generate_ms"`
	SuiteSimulateMS float64 `json:"suite_simulate_ms"`
	SuiteOtherMS    float64 `json:"suite_other_ms"`

	// Headline workload × {baseline, ideal, stms} matrix, timed on a
	// fresh session so memoization cannot hide simulator throughput.
	MatrixWallMS  float64 `json:"matrix_wall_ms"`
	GenerateMS    float64 `json:"generate_ms"`
	SimulateMS    float64 `json:"simulate_ms"`
	MatrixOtherMS float64 `json:"matrix_other_ms"`
	MatrixCells   int     `json:"matrix_cells"`
	MatrixRecords uint64  `json:"matrix_records"`
	RecordsPerSec float64 `json:"records_per_sec"`
	TotalAllocs   uint64  `json:"total_allocs"`
	TotalAllocMB  float64 `json:"total_alloc_mb"`

	// Frame-pipeline counters summed over the headline matrix cells.
	FramesDecoded uint64 `json:"frames_decoded"`
	FrameRecords  uint64 `json:"frame_records"`

	TapeHits      uint64 `json:"tape_hits"`
	TapeMisses    uint64 `json:"tape_misses"`
	TapeBuilds    uint64 `json:"tape_builds"`
	TapeEvictions uint64 `json:"tape_evictions"`
	TapeBytes     int64  `json:"tape_bytes"`

	// Distributed-lab accounting (zero on purely local runs).
	WorkerCount int    `json:"worker_count"`
	RemoteCells uint64 `json:"remote_cells"`
	TapeFetches uint64 `json:"tape_fetches"`

	// Resilience accounting (v6; zero on purely local runs and on
	// healthy pools).
	RemoteRetries uint64 `json:"remote_retries"`
	BreakerTrips  uint64 `json:"breaker_trips"`
	StallAborts   uint64 `json:"stall_aborts"`
	BackoffWaits  uint64 `json:"backoff_waits"`

	// Checkpoint accounting (v7; zero without checkpointing workers).
	CkptWrites  uint64  `json:"ckpt_writes"`
	CkptResumes uint64  `json:"ckpt_resumes"`
	CkptBytes   uint64  `json:"ckpt_bytes"`
	ResumeMS    float64 `json:"resume_ms"`

	// Sampled-simulation characterization (v8).
	Windows         int     `json:"windows"`
	SampleErrPct    float64 `json:"sample_err_pct"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`

	// Streaming-ingestion characterization (v9).
	StreamedCells    uint64 `json:"streamed_cells"`
	StreamReconnects uint64 `json:"stream_reconnects"`
	StreamFrames     uint64 `json:"stream_frames"`

	Matrix *stms.Matrix `json:"matrix"`
}

// writeBenchJSON times the headline workload × {baseline, ideal, stms}
// matrix on a fresh session (the shared session would serve memoized
// results, hiding the simulator's real throughput) and writes the
// benchmark document with throughput and allocation totals.
func writeBenchJSON(path string, r *expt.Runner, o expt.Options, id string, elapsed time.Duration, workers []string, windows int) error {
	opts := []stms.Option{
		stms.WithScale(o.Scale), stms.WithSeed(o.Seed),
		stms.WithWindows(o.Warm, o.Measure),
	}
	if o.Parallel > 0 {
		opts = append(opts, stms.WithParallelism(o.Parallel))
	}
	if len(workers) > 0 {
		opts = append(opts, stms.WithWorkers(workers))
	}
	lab, err := stms.New(opts...)
	if err != nil {
		return err
	}
	plan := lab.Plan(stms.FigureEight(), []stms.PrefSpec{
		{Kind: stms.None},
		{Kind: stms.Ideal},
		{Kind: stms.STMS, SampleProb: 0.125},
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		return err
	}
	matrixElapsed := time.Since(t0)
	runtime.ReadMemStats(&after)

	cells := len(m.Workloads) * len(m.Labels)
	// Every cell simulates warm+measure records on each core.
	simRecords := uint64(cells) * (o.Warm + o.Measure) * uint64(stms.DefaultConfig().Cores)
	ts := lab.TapeStats()
	sts := r.TapeStats()

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	other := func(wall float64, parts ...float64) float64 {
		for _, p := range parts {
			wall -= p
		}
		if wall < 0 {
			// Parallel cells can overlap tape builds with simulation, so
			// the accounted parts may exceed the wall; clamp rather than
			// report negative residue.
			return 0
		}
		return wall
	}
	rs := lab.RemoteStats()
	doc := benchDoc{
		Schema:     "stms-bench/v9",
		Experiment: id,
		Scale:      o.Scale,
		Seed:       o.Seed,
		Warm:       o.Warm,
		Measure:    o.Measure,

		ExperimentsMS:   ms(elapsed),
		SuiteGenerateMS: ms(sts.Generate),
		SuiteSimulateMS: ms(sts.Simulate),

		MatrixWallMS:  ms(matrixElapsed),
		GenerateMS:    ms(ts.Generate),
		SimulateMS:    ms(ts.Simulate),
		MatrixCells:   cells,
		MatrixRecords: simRecords,
		RecordsPerSec: float64(simRecords) / matrixElapsed.Seconds(),
		TotalAllocs:   after.Mallocs - before.Mallocs,
		TotalAllocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),

		TapeHits:      ts.Hits,
		TapeMisses:    ts.Misses,
		TapeBuilds:    ts.Builds,
		TapeEvictions: ts.Evictions,
		TapeBytes:     ts.BytesInUse,

		WorkerCount: rs.Workers,
		RemoteCells: rs.RemoteCells,
		TapeFetches: rs.TapeFetches,

		RemoteRetries: rs.Retries,
		BreakerTrips:  rs.BreakerTrips,
		StallAborts:   rs.StallAborts,
		BackoffWaits:  rs.BackoffWaits,

		CkptWrites:  rs.CkptWrites,
		CkptResumes: rs.CkptResumes,
		CkptBytes:   rs.CkptBytes,
		ResumeMS:    ms(rs.ResumeWall),

		Matrix: m,
	}
	doc.ElapsedMS = doc.ExperimentsMS + doc.MatrixWallMS
	doc.SuiteOtherMS = other(doc.ExperimentsMS, doc.SuiteGenerateMS, doc.SuiteSimulateMS)
	doc.MatrixOtherMS = other(doc.MatrixWallMS, doc.GenerateMS, doc.SimulateMS)
	for _, c := range m.Cells {
		if c.Res != nil {
			doc.FramesDecoded += c.Res.Frames.Frames
			doc.FrameRecords += c.Res.Frames.Records
		}
	}
	if err := sampledCharacterization(&doc, o, windows); err != nil {
		return err
	}
	if err := streamCharacterization(&doc, o); err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// sampledCharacterization times the web-apache × stms headline cell as
// a K-window sampled estimate back-to-back against its exact serial
// twin, through stms.Run and stms.Sample directly (no memo or tape store, so
// both walls measure pure simulation). The worst-metric error is a
// deterministic function of the configuration; the wall ratio is a
// property of this host's core count.
func sampledCharacterization(doc *benchDoc, o expt.Options, windows int) error {
	if windows <= 1 {
		windows = 4
	}
	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = o.Scale, o.Seed
	cfg.WarmRecords, cfg.MeasureRecords = o.Warm, o.Measure
	spec, err := stms.Workload("web-apache")
	if err != nil {
		return err
	}
	ps := stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}
	ctx := context.Background()

	t0 := time.Now()
	exact, err := stms.Run(ctx, cfg, stms.FromSpec(spec), ps)
	if err != nil {
		return err
	}
	serial := time.Since(t0)
	t1 := time.Now()
	sr, err := stms.Sample(ctx, cfg, stms.FromSpec(spec), ps, stms.Sampling{Windows: windows})
	if err != nil {
		return err
	}
	sampled := time.Since(t1)

	worst := 0.0
	for _, pair := range [][2]float64{
		{sr.Results.IPC, exact.IPC},
		{sr.Results.MLP, exact.MLP},
		{sr.Results.DRAMUtil, exact.DRAMUtil},
		{sr.Results.Coverage(), exact.Coverage()},
	} {
		got, want := pair[0], pair[1]
		d := got - want
		if d < 0 {
			d = -d
		}
		m := want
		if m < 0 {
			m = -m
		}
		if m < 1e-9 {
			m = 1e-9
		}
		if e := d / m; e > worst {
			worst = e
		}
	}
	doc.Windows = len(sr.Windows)
	doc.SampleErrPct = worst * 100
	if sampled > 0 {
		doc.SpeedupVsSerial = float64(serial) / float64(sampled)
	}
	return nil
}

// streamCharacterization re-runs the web-apache × stms headline cell
// with the trace streamed to the timed driver over a loopback STMSWIRE
// connection (DESIGN.md §14), one mid-stream disconnect injected so the
// resume path is always exercised. The streamed result must match the
// direct run bit-for-bit — a divergence fails the whole bench run.
func streamCharacterization(doc *benchDoc, o expt.Options) error {
	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = o.Scale, o.Seed
	cfg.WarmRecords, cfg.MeasureRecords = o.Warm, o.Measure
	spec, err := stms.Workload("web-apache")
	if err != nil {
		return err
	}
	ps := stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}
	ctx := context.Background()

	direct, err := stms.Run(ctx, cfg, stms.FromSpec(spec), ps)
	if err != nil {
		return err
	}

	perCore := o.Warm + o.Measure
	src, err := stream.SpecSource(spec.Scaled(o.Scale), o.Seed, cfg.Cores, perCore)
	if err != nil {
		return err
	}
	out := stream.NewOutlet(src, stream.Timeouts{})
	framesPerCore := (perCore + trace.FrameCap - 1) / trace.FrameCap
	out.InjectCuts(framesPerCore * uint64(cfg.Cores) / 2)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- out.Serve(serveCtx, lis) }()

	in, err := stream.DialInlet(lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		return err
	}
	defer in.Close()
	h := in.Hello()
	run := stms.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
	streamed, err := stms.Run(ctx, cfg, stms.FromSources(run), ps)
	if err != nil {
		return err
	}
	if err := <-served; err != nil {
		return fmt.Errorf("stream outlet: %w", err)
	}
	if !reflect.DeepEqual(streamed, direct) {
		return fmt.Errorf("streamed run diverged from direct run")
	}
	doc.StreamedCells = 1
	doc.StreamReconnects = in.Reconnects()
	doc.StreamFrames = out.FramesSent()
	return nil
}
