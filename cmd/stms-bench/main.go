// Command stms-bench regenerates the paper's tables and figures over the
// shared lab session, fanning each experiment's run matrix out across a
// worker pool.
//
// Usage:
//
//	stms-bench [-run all|table1|table2|fig1l|fig1r|fig4|fig5l|fig5r|fig6l|fig6r|fig7|fig8|fig9|phase|sampled|abl]
//	           [-scale 0.125] [-seed 42] [-warm 80000] [-measure 120000]
//	           [-par 0] [-out results.txt]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Sizes are scaled together (caches, meta-data tables, workload
// footprints), preserving the paper's size relationships; -scale 1 runs
// paper-scale meta-data (needs long traces to warm: raise -warm and
// -measure accordingly). -par bounds the matrix worker pool (0 = all
// CPUs); results are identical regardless. -cpuprofile/-memprofile
// write pprof profiles of the whole invocation. Performance is measured
// by the benchmark module in bench/, not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"stms/internal/expt"
)

func main() {
	run := flag.String("run", "all", "experiment id (or 'all')")
	scale := flag.Float64("scale", 0.125, "system scale factor")
	seed := flag.Uint64("seed", 42, "trace and sampling seed")
	warm := flag.Uint64("warm", 80_000, "warm-up records per core")
	measure := flag.Uint64("measure", 120_000, "measured records per core")
	par := flag.Int("par", 0, "matrix worker pool size (0 = all CPUs)")
	out := flag.String("out", "", "also write results to this file")
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
	if err := expt.NewRunner(o).ByID(*run, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "(%s, scale=%g, seed=%d, %d+%d records/core)\n",
		time.Since(start).Round(time.Millisecond), o.Scale, o.Seed, o.Warm, o.Measure)
}
