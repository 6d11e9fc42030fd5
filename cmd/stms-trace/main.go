// Command stms-trace inspects the synthetic workload generators: record
// mix, stream-length distribution, burstiness, and address arenas. Useful
// when calibrating workloads against the paper's characteristics. It is
// also the producer of live trace streams (-wire).
//
// Usage:
//
//	stms-trace [-workload oltp-db2 | -scenario phase-flip | -scenario scn.json]
//	           [-records 200000] [-scale 0.125]
//	           [-seed 42] [-cores 4] [-dump 0]
//	           [-o flat.trace] [-tape columnar.tape]
//	           [-scenario-out scn.json] [-list-scenarios]
//	           [-champsim trace.gz] [-wire ADDR|- [-wire-cut-after 5,17]]
//
// -o captures the inspected record stream to the flat interchange
// format; -tape materializes a columnar trace.Tape of the same identity
// (records/cores per-core budget) and writes the versioned tape format,
// which stms-sim replays per core with no re-dealing and which is
// typically ~2.5x smaller.
//
// -scenario selects a phase-structured scenario instead of a stationary
// workload: a built-in name (-list-scenarios prints them) or a path to
// a scenario JSON file. Scenario tapes record their phase marks, so
// stms-sim replay windows statistics per phase; -scenario-out writes
// the resolved scenario back out in the versioned JSON format (a
// starting point for custom scenarios).
//
// -champsim imports a ChampSim input_instr trace (optionally gzipped)
// as the record source instead of a synthetic workload: each memory
// source operand becomes one record, strictly validated, and -o
// captures the result for stms-sim replay.
//
// -wire streams the selected source live over the STMSWIRE protocol
// (DESIGN.md §14) instead of inspecting it: -wire ADDR listens on ADDR
// and serves the stream to a consumer that dials in (stms-sim -connect
// ADDR), -wire - writes a one-way stream to stdout (pipe into stms-sim
// -connect -). The stream carries -records/-cores records per core
// (rounded up) and the consumer measures what its -warm leaves: a
// -records 24000 -cores 4 stream simulated with -warm 2000 reports
// byte-identically to stms-sim -warm 2000 -measure 4000. A TCP consumer
// may drop and reconnect mid-stream; the outlet resumes from the
// acknowledged frame and exits once the whole stream is acknowledged.
// -wire-cut-after drops the connection after the listed frame numbers
// (a chaos hook for exercising exactly that resume path).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"stms"
	"stms/internal/stats"
	"stms/internal/stream"
	"stms/internal/trace"
)

func main() {
	workload := flag.String("workload", "web-apache", "workload name")
	scenario := flag.String("scenario", "", "scenario name or JSON file (overrides -workload)")
	listScns := flag.Bool("list-scenarios", false, "list built-in scenario names and exit")
	scnOut := flag.String("scenario-out", "", "write the resolved scenario JSON to this file")
	records := flag.Uint64("records", 200_000, "records to generate (total)")
	scale := flag.Float64("scale", 0.125, "workload scale factor")
	seed := flag.Uint64("seed", 42, "trace seed")
	cores := flag.Int("cores", 4, "generator cores sharing the library")
	dump := flag.Int("dump", 0, "print the first N records")
	out := flag.String("o", "", "write the generated records to a flat trace file")
	tapeOut := flag.String("tape", "", "write the workload as a columnar tape file")
	champsim := flag.String("champsim", "", "import a ChampSim input_instr trace (optionally gzipped) instead of a synthetic workload")
	wire := flag.String("wire", "", "stream the source over STMSWIRE: serve it on ADDR, or - for a one-way stream on stdout")
	var cuts []uint64
	flag.Func("wire-cut-after", "chaos: with -wire ADDR, drop the connection after these frame numbers (comma-separated)", func(list string) error {
		for _, f := range strings.Split(list, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return err
			}
			cuts = append(cuts, n)
		}
		return nil
	})
	flag.Parse()

	if *listScns {
		for _, name := range stms.ScenarioNames() {
			fmt.Println(name)
		}
		return
	}
	if *cores < 1 {
		fmt.Fprintln(os.Stderr, "stms-trace: -cores must be >= 1")
		os.Exit(1)
	}
	if len(cuts) > 0 && (*wire == "" || *wire == "-") {
		fmt.Fprintln(os.Stderr, "stms-trace: -wire-cut-after needs -wire ADDR (a one-way stream cannot resume past a cut)")
		os.Exit(1)
	}
	if *champsim != "" {
		switch {
		case *scenario != "":
			fmt.Fprintln(os.Stderr, "stms-trace: -champsim and -scenario are mutually exclusive")
			os.Exit(1)
		case *tapeOut != "":
			fmt.Fprintln(os.Stderr, "stms-trace: -tape regenerates from a workload spec; capture imported traces with -o instead")
			os.Exit(1)
		}
		*cores = 1 // a ChampSim trace is one instruction stream
	}
	perCore := (*records + uint64(*cores) - 1) / uint64(*cores)

	var (
		spec  trace.Spec
		scn   stms.Scenario
		marks []trace.PhaseMark
		lib   *trace.Library
		gens  []trace.Generator
		rdr   *trace.ChampSimReader
	)
	if *champsim != "" {
		f, err := os.Open(*champsim)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rdr, err = trace.NewChampSimReader(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// GapInstrs only calibrates the burstiness stats below; half of
		// it is the compute-record threshold on the instruction gap.
		spec = trace.Spec{Name: "champsim:" + filepath.Base(*champsim), DirtyFrac: 0.25, GapInstrs: 64, GapWork: 64}
		gens = []trace.Generator{rdr}
	} else if *scenario != "" {
		s, err := resolveScenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scn = s
		scaled := scn.Scaled(*scale)
		spec = scaled.EffectiveSpec(*cores, perCore)
		gens, marks, err = scaled.Generators(*seed, *cores, perCore)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		var err error
		spec, err = stms.Workload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec = spec.Scaled(*scale)
		lib = trace.NewLibrary(spec, *seed)
		gens = make([]trace.Generator, *cores)
		for i := range gens {
			gens[i] = trace.NewGenerator(lib, i, *seed)
		}
	}

	if *scnOut != "" {
		if *scenario == "" {
			fmt.Fprintln(os.Stderr, "stms-trace: -scenario-out needs -scenario")
			os.Exit(1)
		}
		if err := writeScenario(*scnOut, scn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote scenario %q (%d phases) to %s\n", scn.Name, len(scn.Phases), *scnOut)
	}

	if *wire != "" {
		if *out != "" || *tapeOut != "" || *dump > 0 {
			fmt.Fprintln(os.Stderr, "stms-trace: -wire streams the source instead of inspecting it; drop -o/-tape/-dump")
			os.Exit(1)
		}
		var src stream.Source
		var err error
		switch {
		case *champsim != "":
			// One-shot external feed: bound it to the -records budget so
			// the handshake can promise an exact per-core count.
			for i := range gens {
				gens[i] = &trace.Limit{Gen: gens[i], N: perCore}
			}
			src = stream.GeneratorSource(spec.Name, spec.DirtyFrac, gens)
			src.Hello.Seed = *seed
			src.Hello.PerCore = perCore
		case *scenario != "":
			src, err = stream.ScenarioSource(scn.Scaled(*scale), *seed, *cores, perCore)
		default:
			src, err = stream.SpecSource(spec, *seed, *cores, perCore)
		}
		if err == nil {
			err = streamWire(src, *wire, cuts)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var captured []trace.Record
	if *out != "" {
		captured = make([]trace.Record, 0, *records)
	}
	var (
		rec        trace.Record
		blocks     = map[uint64]struct{}{}
		instrs     uint64
		work       uint64
		deps       uint64
		gapRecords uint64
		burstLens  stats.Histogram
		curBurst   uint64
	)
	// Records are taken from the cores round-robin. Each core's frames
	// are capped at the records it still owes, so no generator or
	// importer reads past the -records total.
	ncores := uint64(len(gens))
	lims := make([]trace.Limit, ncores)
	frames := make([]*trace.Frame, ncores)
	pos := make([]int, ncores)
	for c := range lims {
		owed := *records / ncores
		if uint64(c) < *records%ncores {
			owed++
		}
		lims[c] = trace.Limit{Gen: gens[c], N: owed}
		frames[c] = trace.NewFrame()
	}
	for i := uint64(0); i < *records; i++ {
		c := i % ncores
		f := frames[c]
		if pos[c] == f.Len() {
			if lims[c].ReadFrame(f) == 0 {
				break
			}
			pos[c] = 0
		}
		f.Record(pos[c], &rec)
		pos[c]++
		if int(i) < *dump {
			fmt.Printf("%6d core=%d pc=%#x blk=%#x dep=%v instrs=%d work=%d\n",
				i, c, rec.PC, rec.Block, rec.Dep, rec.Instrs, rec.Work)
		}
		if captured != nil {
			captured = append(captured, rec)
		}
		blocks[rec.Block] = struct{}{}
		instrs += uint64(rec.Instrs)
		work += uint64(rec.Work)
		if rec.Dep {
			deps++
		}
		if rec.Instrs >= spec.GapInstrs/2 {
			gapRecords++
			if curBurst > 0 {
				burstLens.Add(curBurst)
			}
			curBurst = 0
		} else {
			curBurst++
		}
	}

	if rdr != nil {
		// A short read is fine (the budget ran out); a decode error is a
		// malformed import and must not pass as a clean truncation.
		if err := rdr.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.WriteAll(f, captured); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d records to %s\n", len(captured), *out)
	}

	if *tapeOut != "" {
		// The per-core budget rounds up so the tape covers at least the
		// -records total (and the whole -o capture) when the count does
		// not divide evenly across cores.
		var tape *trace.Tape
		if *scenario != "" {
			tape = trace.NewScenarioTape(scn.Scaled(*scale), *seed, *cores, perCore)
		} else {
			tape = trace.NewTape(spec, *seed, *cores, perCore)
		}
		f, err := os.Create(*tapeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.WriteTape(f, tape); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total := perCore * uint64(*cores)
		if total == 0 {
			total = 1
		}
		fmt.Printf("wrote %d-core tape (%d records/core, %.1f MB columnar, %.2f B/record) to %s\n",
			tape.Cores(), tape.PerCore(), float64(tape.Bytes())/1e6,
			float64(tape.Bytes())/float64(total), *tapeOut)
	}

	n := float64(*records)
	fmt.Printf("workload        %s (scale %g)\n", spec.Name, *scale)
	fmt.Printf("records         %d across %d cores\n", *records, *cores)
	fmt.Printf("distinct blocks %d (%.1f MB touched)\n", len(blocks), float64(len(blocks))*64/1e6)
	if lib != nil {
		fmt.Printf("library         %d streams, footprint %d blocks (%.1f MB), %d churned\n",
			lenStreams(lib), lib.Footprint(), float64(lib.Footprint())*64/1e6, lib.Regenerated())
	}
	if rdr != nil {
		fmt.Printf("imported        %d instructions -> %d memory-source records\n",
			rdr.Instructions(), rdr.Records())
	}
	if *scenario != "" {
		fmt.Printf("phases          %d", len(scn.Phases))
		if len(marks) > 0 {
			var parts []string
			for _, m := range marks {
				parts = append(parts, fmt.Sprintf("%s@%d", m.Name, m.Start))
			}
			fmt.Printf(" (per-core starts: %s)", strings.Join(parts, ", "))
		}
		fmt.Println()
	}
	fmt.Printf("mean instrs     %.1f /record (aggregate IPC ceiling %.2f)\n", float64(instrs)/n, 4.0)
	fmt.Printf("mean work       %.1f cycles/record\n", float64(work)/n)
	fmt.Printf("dep fraction    %s\n", stats.Pct(float64(deps)/n))
	fmt.Printf("compute records %s of records\n", stats.Pct(float64(gapRecords)/n))
	fmt.Printf("mean burst      %.2f memory records between compute records\n", burstLens.MeanValue())
	fmt.Printf("burst p50/p90   %d / %d\n", burstLens.Quantile(0.5), burstLens.Quantile(0.9))
}

func lenStreams(l *trace.Library) int {
	if l.Spec().IterStream {
		return -1 // per-core, built lazily
	}
	return l.Spec().Streams
}

// streamWire serves the source over STMSWIRE: to stdout as a one-way
// stream ("-"), or on a TCP listener at addr until a consumer
// (stms-sim -connect) has acknowledged the whole stream, cutting the
// connection after each frame number in cuts.
func streamWire(src stream.Source, addr string, cuts []uint64) error {
	out := stream.NewOutlet(src, stream.Timeouts{})
	if addr == "-" {
		if err := out.WriteAll(os.Stdout); err != nil {
			return err
		}
	} else {
		out.InjectCuts(cuts...)
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		h := out.Hello()
		fmt.Fprintf(os.Stderr, "stms-trace: streaming %s (%d cores, %d records/core) on %s\n",
			h.Spec.Name, h.Cores, h.PerCore, lis.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := out.Serve(ctx, lis); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "stms-trace: streamed %d frames (%d resumes)\n", out.FramesSent(), out.Resumes())
	return nil
}

// resolveScenario interprets the -scenario argument: a built-in name,
// or (when it names no built-in and looks like a path) a scenario JSON
// file.
func resolveScenario(arg string) (stms.Scenario, error) {
	scn, err := stms.ScenarioByName(arg)
	if err == nil {
		return scn, nil
	}
	f, ferr := os.Open(arg)
	if ferr != nil {
		if strings.ContainsAny(arg, "/.") {
			return stms.Scenario{}, fmt.Errorf("stms-trace: %w", ferr)
		}
		return stms.Scenario{}, err // unknown name: suggest built-ins
	}
	defer f.Close()
	return stms.ParseScenario(f)
}

// writeScenario writes the scenario in its versioned JSON format.
func writeScenario(path string, scn stms.Scenario) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(scn); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
