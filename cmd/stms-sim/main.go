// Command stms-sim runs one timed simulation and prints its results:
// coverage, speedup-relevant IPC, MLP, and the DRAM traffic breakdown.
// It is a thin shell over the stms.Lab session API: the workload and
// requested variants become a 1×N run matrix.
//
// Usage:
//
//	stms-sim [-workload web-apache] [-pref stms|ideal|baseline|tse|ebcp|ulmt|markov]
//	         [-sample 0.125] [-depth 0] [-scale 0.125] [-seed 42]
//	         [-warm 80000] [-measure 120000] [-compare] [-v]
//	         [-windows K] [-confidence 0.95]
//	         [-checkpoint-every N -checkpoint ck.stmsckpt [-halt-after K]] [-resume ck.stmsckpt]
//
// Runs are crash-resumable: -checkpoint-every N snapshots the whole
// simulator to -checkpoint every N records (atomic replace), -halt-after
// simulates a crash by exiting 0 after K checkpoints, and -resume picks
// the run back up from the file — the resumed report is bit-identical
// to an uninterrupted run's.
//
// -workload accepts a Table 1 workload name or a built-in scenario name
// (stms-trace -list-scenarios); scenario runs append a per-phase
// coverage table to the report. With -compare, the baseline and
// idealized runs execute too (in parallel, sharing the same trace seed
// for matched pairs) and the speedup and coverage ratios are reported
// (Figure 9 style). With -v, cell progress events stream to stderr as
// the matrix executes.
//
// -windows K (K > 1) replaces the serial timed run with the K-window
// sampled estimate (DESIGN.md §13): the measurement span splits into K
// concurrently simulated windows, and the report gains per-metric
// confidence intervals (level set by -confidence) and a per-window
// table. K = 1 is the exact run.
//
// -connect ADDR consumes a live STMSWIRE stream instead of generating
// the trace locally: the simulator dials a producer (stms-serve -stream,
// or stms-trace -wire), takes its trace identity from the handshake, and
// simulates the framed records as they arrive — bit-identical to running
// the same workload or tape directly, including across producer drops
// and reconnects. -connect - reads a one-way stream from stdin;
// -listen ADDR accepts a producer that dials in instead. -functional
// swaps in the zero-latency driver for streamed runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"stms"
	"stms/internal/ckpt"
	"stms/internal/dram"
	"stms/internal/sim"
	"stms/internal/stats"
	"stms/internal/stream"
	"stms/internal/trace"
)

func kindOf(s string) (stms.Kind, error) {
	switch s {
	case "baseline", "none":
		return stms.None, nil
	case "ideal":
		return stms.Ideal, nil
	case "stms":
		return stms.STMS, nil
	case "tse":
		return stms.TSE, nil
	case "ebcp":
		return stms.EBCP, nil
	case "ulmt":
		return stms.ULMT, nil
	case "markov":
		return stms.Markov, nil
	}
	return 0, fmt.Errorf("unknown prefetcher %q", s)
}

func main() {
	workload := flag.String("workload", "web-apache", "workload name")
	traceFile := flag.String("trace", "", "replay a recorded trace file instead of a synthetic workload")
	pref := flag.String("pref", "stms", "prefetcher variant")
	sample := flag.Float64("sample", 0.125, "STMS update sampling probability")
	depth := flag.Int("depth", 0, "max prefetch depth per lookup (0 = unlimited)")
	scale := flag.Float64("scale", 0.125, "system scale factor")
	seed := flag.Uint64("seed", 42, "trace seed")
	warm := flag.Uint64("warm", 80_000, "warm-up records per core")
	measure := flag.Uint64("measure", 120_000, "measured records per core")
	compare := flag.Bool("compare", false, "also run baseline and ideal")
	windows := flag.Int("windows", 1, "split the measurement into K concurrent sampled windows (1 = exact serial run)")
	confidence := flag.Float64("confidence", 0.95, "two-sided confidence level for sampled-run error bars")
	verbose := flag.Bool("v", false, "stream cell progress events to stderr")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "write a crash-resume checkpoint every N records (requires -checkpoint)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file path (STMSCKPT container, atomically replaced each cadence)")
	haltAfter := flag.Int("halt-after", 0, "halt after writing N checkpoints and exit 0 (simulates a crash; resume with -resume)")
	resume := flag.String("resume", "", "resume from the checkpoint file a -checkpoint-every run wrote; results are bit-identical to the uninterrupted run")
	connect := flag.String("connect", "", "consume a live STMSWIRE stream: dial ADDR, or - for stdin")
	listenStream := flag.String("listen", "", "consume a live STMSWIRE stream: accept one producer on ADDR")
	functional := flag.Bool("functional", false, "use the zero-latency functional driver (streamed runs only)")
	flag.Parse()

	kind, err := kindOf(*pref)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := []stms.Option{
		stms.WithScale(*scale),
		stms.WithSeed(*seed),
		stms.WithWindows(*warm, *measure),
	}
	if *windows > 1 {
		opts = append(opts, stms.WithSampling(stms.Sampling{Windows: *windows, Confidence: *confidence}))
	}
	if *verbose {
		opts = append(opts, stms.WithProgress(func(ev stms.ResultEvent) {
			switch ev.Kind {
			case stms.CellStarted:
				fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s started\n", ev.Done, ev.Total, ev.Cell.Workload, ev.Cell.Label)
			case stms.CellFinished:
				fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s finished in %s\n", ev.Done, ev.Total, ev.Cell.Workload, ev.Cell.Label, ev.Wall.Round(1e6))
			case stms.CellFailed:
				fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s FAILED: %v\n", ev.Done, ev.Total, ev.Cell.Workload, ev.Cell.Label, ev.Err)
			}
		}))
	}
	lab, err := stms.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ps := stms.PrefSpec{Kind: kind, MaxDepth: *depth}
	if kind == stms.STMS {
		ps.SampleProb = *sample // meaningless for other variants; keep cells canonical
	}

	if *windows > 1 && (*resume != "" || *ckptEvery > 0 || *traceFile != "" || *connect != "" || *listenStream != "") {
		fmt.Fprintln(os.Stderr, "stms-sim: -windows composes with workload/scenario runs only (not -trace, -connect, -listen, -checkpoint-every or -resume)")
		os.Exit(1)
	}

	if *connect != "" || *listenStream != "" {
		switch {
		case *connect != "" && *listenStream != "":
			fmt.Fprintln(os.Stderr, "stms-sim: pass at most one of -connect and -listen")
			os.Exit(1)
		case *resume != "" || *ckptEvery > 0 || *traceFile != "":
			fmt.Fprintln(os.Stderr, "stms-sim: streamed runs are not checkpointable and take their trace from the wire (drop -trace/-checkpoint-every/-resume)")
			os.Exit(1)
		}
		res, err := runStreamed(lab.BaseConfig(), *connect, *listenStream, *warm, *functional, ps)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report(res, lab.BaseConfig())
		if *compare {
			fmt.Println("\n(-compare is unavailable for streamed runs; reconnect one producer per -pref variant instead)")
		}
		return
	}
	if *functional {
		fmt.Fprintln(os.Stderr, "stms-sim: -functional applies to streamed runs (-connect/-listen) only")
		os.Exit(1)
	}

	if *resume != "" || *ckptEvery > 0 || *haltAfter > 0 {
		if err := runCheckpointed(lab.BaseConfig(), *workload, ps, *ckptEvery, *ckptPath, *haltAfter, *resume); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *compare {
			fmt.Println("\n(-compare is unavailable with checkpointing; run each -pref variant separately)")
		}
		return
	}

	if *traceFile != "" {
		res, err := replayTrace(lab.BaseConfig(), *traceFile, ps)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		report(res, lab.BaseConfig())
		if *compare {
			fmt.Println("\n(-compare is unavailable with -trace; run each -pref variant on the file instead)")
		}
		return
	}

	prefs := []stms.PrefSpec{ps}
	if *compare && kind != stms.None {
		prefs = append(prefs, stms.PrefSpec{Kind: stms.None}, stms.PrefSpec{Kind: stms.Ideal})
	}
	plan := lab.Plan([]string{*workload}, prefs)
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintf(os.Stderr, "workloads: %v\nscenarios: %v\n", stms.Workloads(), stms.ScenarioNames())
		os.Exit(1)
	}

	res := m.At(0, 0).Res
	report(*res, lab.BaseConfig())
	if sr := m.At(0, 0).Sampled; sr != nil {
		reportSampled(sr)
	}

	if len(prefs) == 3 {
		base := m.At(0, 1).Res
		ideal := m.At(0, 2).Res
		fmt.Printf("\nspeedup over baseline: %+.1f%% (ideal: %+.1f%%)\n",
			res.SpeedupOver(base)*100, ideal.SpeedupOver(base)*100)
		if ideal.Coverage() > 0 {
			fmt.Printf("coverage vs ideal:     %.1f%%\n", 100*res.Coverage()/ideal.Coverage())
		}
	}
}

// runStreamed consumes a live STMSWIRE stream and simulates it: the
// producer's handshake supplies the trace identity (spec, seed, cores,
// per-core budget), so the streamed run is configured exactly like the
// direct run it mirrors. The warm window comes from -warm; the measured
// window is whatever the stream delivers beyond it.
func runStreamed(cfg stms.Config, connect, listen string, warm uint64, functional bool, ps stms.PrefSpec) (stms.Results, error) {
	var (
		in  *stream.Inlet
		err error
	)
	switch {
	case connect == "-":
		in, err = stream.ReaderInlet(os.Stdin, stream.InletConfig{})
	case connect != "":
		in, err = stream.DialInlet(connect, stream.InletConfig{})
	default:
		lis, lerr := net.Listen("tcp", listen)
		if lerr != nil {
			return stms.Results{}, lerr
		}
		fmt.Fprintf(os.Stderr, "stms-sim: waiting for a stream producer on %s\n", lis.Addr())
		in, err = stream.ListenInlet(lis, stream.InletConfig{})
	}
	if err != nil {
		return stms.Results{}, err
	}
	defer in.Close()

	h := in.Hello()
	cfg.Cores = h.Cores
	cfg.Seed = h.Seed
	if h.PerCore > 0 {
		if warm >= h.PerCore {
			return stms.Results{}, fmt.Errorf("stms-sim: stream delivers %d records/core; -warm %d leaves nothing to measure", h.PerCore, warm)
		}
		cfg.WarmRecords = warm
		cfg.MeasureRecords = h.PerCore - warm
	}
	from := h.Spec.Name
	if h.Scenario != "" {
		from = "scenario " + h.Scenario
	}
	fmt.Fprintf(os.Stderr, "stms-sim: streaming %s: %d cores, %d records/core (warm %d + measure %d), seed %d\n",
		from, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords, cfg.WarmRecords, cfg.MeasureRecords, cfg.Seed)

	run := sim.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: in.Sources(), PerCore: h.PerCore}
	mode := sim.Timed
	if functional {
		mode = sim.Functional
	}
	res, err := runOne(cfg, sim.FromSources(run), ps, sim.WithMode(mode))
	if err != nil {
		return stms.Results{}, err
	}
	if n := in.Reconnects(); n > 0 {
		fmt.Fprintf(os.Stderr, "stms-sim: stream survived %d reconnect(s) (%d frames)\n", n, in.Frames())
	}
	return res, nil
}

// runCheckpointed is the crash-resumable single-cell path: it threads
// the sim checkpoint options through a direct entry-point run (the lab
// matrix path and checkpointing compose at the worker layer instead).
// A -halt-after halt is a simulated crash, not a failure: the process
// exits 0 with a notice, and -resume continues the run to bit-identical
// results.
func runCheckpointed(cfg stms.Config, workload string, ps stms.PrefSpec, every uint64, path string, haltAfter int, resume string) error {
	var opts []sim.RunOption
	switch {
	case every > 0 && path == "":
		return fmt.Errorf("stms-sim: -checkpoint-every needs -checkpoint PATH")
	case every == 0 && haltAfter > 0:
		return fmt.Errorf("stms-sim: -halt-after needs -checkpoint-every")
	case every > 0:
		opts = append(opts, sim.WithCheckpointEvery(every, path))
		if haltAfter > 0 {
			opts = append(opts, sim.WithCheckpointHalt(haltAfter))
		}
	}

	var in sim.Input
	if resume != "" {
		// The checkpoint knows its own workload, config and variant.
		data, err := ckpt.ReadFile(resume)
		if err != nil {
			return err
		}
		data = ckpt.Seal(data)
		d, err := sim.Peek(data)
		if err != nil {
			return err
		}
		if in, err = d.Input(nil); err != nil {
			return err
		}
		cfg, ps = d.Cfg, d.PS
		opts = append(opts, sim.WithResume(data))
		if d.Mode == sim.Functional.String() {
			opts = append(opts, sim.WithMode(sim.Functional))
		}
	} else if spec, serr := trace.ByName(workload); serr == nil {
		in = sim.FromSpec(spec)
	} else if scn, scerr := trace.ScenarioByName(workload); scerr == nil {
		in = sim.FromScenario(scn)
	} else {
		return serr
	}
	res, err := runOne(cfg, in, ps, opts...)
	if errors.Is(err, sim.ErrCheckpointed) {
		fmt.Fprintf(os.Stderr, "stms-sim: halted after %d checkpoint(s); resume with: stms-sim -resume %s\n", haltAfter, path)
		return nil
	}
	if err != nil {
		return err
	}
	report(res, cfg)
	return nil
}

func report(res stms.Results, cfg stms.Config) {
	fmt.Printf("workload   %s\nvariant    %s\n", res.Workload, res.Variant)
	fmt.Printf("IPC        %.3f (aggregate over %d cores)\n", res.IPC, cfg.Cores)
	fmt.Printf("MLP        %.2f\n", res.MLP)
	fmt.Printf("coverage   %s (full %s, partial %s) of %d baseline misses\n",
		stats.Pct(res.Coverage()), stats.Pct(res.FullCoverage()),
		stats.Pct(res.Coverage()-res.FullCoverage()), res.BaselineMisses())
	fmt.Printf("DRAM util  %s\n", stats.Pct(res.DRAMUtil))

	t := stats.NewTable("DRAM traffic (measurement window)", "class", "accesses", "bytes")
	for c := 0; c < dram.NumClasses; c++ {
		if res.Traffic.Accesses[c] == 0 {
			continue
		}
		t.AddRow(dram.Class(c).String(), res.Traffic.Accesses[c], res.Traffic.Bytes(dram.Class(c)))
	}
	fmt.Println()
	fmt.Print(t)

	if len(res.Phases) > 0 {
		pt := stats.NewTable("per-phase windows (whole run)",
			"phase", "start/core", "records", "coverage", "IPC")
		for i := range res.Phases {
			w := &res.Phases[i]
			pt.AddRow(w.Name, w.Start, w.Records, stats.Pct(w.Coverage()),
				fmt.Sprintf("%.3f", w.IPC))
		}
		fmt.Println()
		fmt.Print(pt)
	}

	ov := res.OverheadTraffic()
	fmt.Printf("\noverhead/useful byte: record %.3f  update %.3f  lookup %.3f  erroneous %.3f  total %.3f\n",
		ov.Record, ov.Update, ov.Lookup, ov.Erroneous, ov.Total())
}

// reportSampled appends the sampled-run error bars and per-window
// breakdown to the report.
func reportSampled(sr *stms.SampledResults) {
	if sr.Exact {
		return
	}
	level := stats.Pct(sr.CI.IPC.Level)
	ct := stats.NewTable(fmt.Sprintf("sampled estimate (%d windows, %s confidence)", len(sr.Windows), level),
		"metric", "estimate", "lo", "hi", "±half-width")
	for _, row := range []struct {
		name string
		ci   stms.CI
	}{
		{"IPC", sr.CI.IPC}, {"MLP", sr.CI.MLP},
		{"DRAM util", sr.CI.DRAMUtil}, {"coverage", sr.CI.Coverage},
	} {
		ct.AddRow(row.name, fmt.Sprintf("%.4f", row.ci.Mean),
			fmt.Sprintf("%.4f", row.ci.Lo), fmt.Sprintf("%.4f", row.ci.Hi),
			fmt.Sprintf("%.4f", row.ci.HalfWidth()))
	}
	fmt.Println()
	fmt.Print(ct)

	wt := stats.NewTable("per-window stats (records per core)",
		"window", "start", "measured", "warm(timed)", "warm(func)", "warm(meta)", "IPC", "coverage")
	for i := range sr.Windows {
		w := &sr.Windows[i]
		wt.AddRow(w.Index, w.Start, w.Len, w.Warmup, w.FuncWarmup, w.MetaWarmup,
			fmt.Sprintf("%.3f", w.Results.IPC), stats.Pct(w.Results.Coverage()))
	}
	fmt.Println()
	fmt.Print(wt)
}

// replayTrace runs the timed simulation over a recorded trace file,
// dispatching on its magic: columnar tapes replay their per-core
// segments directly; flat record files are dealt round-robin back into
// per-core streams (the order stms-trace captured them in).
func replayTrace(cfg stms.Config, path string, ps stms.PrefSpec) (stms.Results, error) {
	f, err := os.Open(path)
	if err != nil {
		return stms.Results{}, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return stms.Results{}, fmt.Errorf("reading %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return stms.Results{}, err
	}

	gens := make([]trace.Generator, cfg.Cores)
	switch trace.DetectFormat(magic) {
	case trace.FormatTape:
		tape, err := trace.ReadTape(f)
		if err != nil {
			return stms.Results{}, err
		}
		if tape.Cores() != cfg.Cores {
			return stms.Results{}, fmt.Errorf("%s holds %d cores; rerun with a matching -cores capture or a %d-core config",
				path, tape.Cores(), cfg.Cores)
		}
		// A tape whose budget matches the run exactly goes through the
		// tape driver: windowed results, and per-phase windows for
		// scenario tapes (the tape's own seed keeps replay faithful).
		cfg.Seed = tape.Seed()
		if tape.PerCore() == cfg.WarmRecords+cfg.MeasureRecords {
			return runOne(cfg, sim.FromTape(tape), ps)
		}
		if tape.Marks() != nil {
			fmt.Fprintf(os.Stderr, "(tape holds %d records/core but -warm+-measure is %d; replaying whole-tape without per-phase windows)\n",
				tape.PerCore(), cfg.WarmRecords+cfg.MeasureRecords)
		}
		for i := range gens {
			gens[i] = tape.Cursor(i)
		}
		spec := tape.Spec()
		name := spec.Name
		if name == "" {
			name = path
		}
		return runGenerators(cfg, name, gens, spec.DirtyFrac, ps)
	case trace.FormatRecords:
		recs, err := trace.ReadAll(f)
		if err != nil {
			return stms.Results{}, err
		}
		perCore := make([][]trace.Record, cfg.Cores)
		for i, r := range recs {
			c := i % cfg.Cores
			perCore[c] = append(perCore[c], r)
		}
		for i := range gens {
			gens[i] = &trace.SliceGenerator{Records: perCore[i]}
		}
		return runGenerators(cfg, path, gens, 0.25, ps)
	}
	return stms.Results{}, fmt.Errorf("%s: not a trace or tape file (magic %q)", path, magic[:])
}

// runGenerators runs the timed simulation over per-core generators of
// already-scaled records, labelled name, with the given dirty-fill
// fraction for the writeback model.
func runGenerators(cfg stms.Config, name string, gens []trace.Generator, dirtyFrac float64, ps stms.PrefSpec) (stms.Results, error) {
	srcs := make([]trace.FrameSource, len(gens))
	for i, g := range gens {
		srcs[i] = trace.AutoFrames(g)
	}
	run := sim.SourceRun{Spec: trace.Spec{Name: name, DirtyFrac: dirtyFrac}, Sources: srcs}
	return runOne(cfg, sim.FromSources(run), ps)
}

// runOne runs one prefetcher variant over in.
func runOne(cfg stms.Config, in sim.Input, ps stms.PrefSpec, opts ...sim.RunOption) (stms.Results, error) {
	rs, err := sim.Run(context.Background(), cfg, in, []stms.PrefSpec{ps}, opts...)
	if err != nil {
		return stms.Results{}, err
	}
	return rs[0], nil
}
