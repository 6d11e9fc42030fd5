package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"stms"
)

const (
	// scale shrinks caches, meta-data and footprints together, as the
	// repository's experiments and BENCH_PR*.json snapshots do.
	scale = 0.125
	// labPar is the lab's worker pool: one closed-loop client submits one
	// matrix at a time, simulated by one worker on the run's one
	// processor.
	labPar = 1
)

// stmsP is the paper's STMS configuration (12.5% update sampling).
var stmsP = stms.PrefSpec{Kind: stms.STMS, SampleProb: 0.125}

// workload is one set of inputs the benchmark runs: a lab matrix.
type workload struct {
	name, why string
	lab       labSpec
}

// workloadNames lists the workloads in the order they are run.
var workloadNames = []string{"fig8-timed", "capacity-functional"}

// newWorkload builds a workload for seed. shrink divides every record
// count; it is 1 except in the smoke test.
func newWorkload(name string, seed, shrink uint64) (workload, error) {
	fig8 := stms.FigureEight()
	switch name {
	case "fig8-timed":
		return workload{name: name,
			why: "the paper's headline Fig. 8/9 matrix on the timed driver, so every layer from cpu and caches to dram, events and the prefetcher is on the path",
			lab: labSpec{rows: fig8, prefs: []stms.PrefSpec{{Kind: stms.None}, {Kind: stms.Ideal}, stmsP},
				mode: stms.Timed, warm: 80_000 / shrink, measure: 120_000 / shrink}}, nil
	case "capacity-functional":
		prefs, labels := capacityPrefs(seed)
		return workload{name: name,
			why: "the Fig. 5 index-capacity sweep on the functional driver: meta-data and caches work hard while event, dram and cpu are bypassed",
			lab: labSpec{rows: fig8, prefs: prefs, labels: labels,
				mode: stms.Functional, warm: 80_000 / shrink, measure: 120_000 / shrink}}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// capacityPrefs is Fig. 5 (right)'s STMS with unbounded history, every
// update recorded, and an index of 0.5, 8 and 64 MB at full scale:
// 64 KB, 1 MB and 8 MB here, either side of a 2 MB host L2.
func capacityPrefs(seed uint64) ([]stms.PrefSpec, []string) {
	var prefs []stms.PrefSpec
	var labels []string
	for _, fullMB := range []float64{0.5, 8, 64} {
		cfg := stms.STMSConfig{
			Cores:               cores,
			HistoryBytesPerCore: 1 << 30,
			IndexBytes:          uint64(fullMB * scale * (1 << 20)),
			BucketWays:          12,
			SampleProb:          1,
			BucketBufferBytes:   8 << 10,
			Seed:                seed,
		}
		prefs = append(prefs, stms.PrefSpec{Kind: stms.STMS, STMSCfg: &cfg})
		labels = append(labels, fmt.Sprintf("stms@idx=%gMB", fullMB))
	}
	return prefs, labels
}

// perCore is the records per core each cell simulates.
func (w workload) perCore() uint64 { return w.lab.warm + w.lab.measure }

// rep is one repetition of a workload: one matrix on a fresh session.
type rep struct {
	start, wall  time.Duration // on the benchmark clock
	cpu          time.Duration // the process's processor time, every thread
	setup        time.Duration
	records      uint64 // simulated: cells × cores × records per core
	cells        []cellOut
	builds, hits uint64
	matrix       *stms.Matrix
	peakRSS      float64       // MB, the process's peak resident set during the repetition
	ref          time.Duration // mean of the reference kernel's times just before and after
}

// slowdown is how much slower the host ran the reference kernel around
// the repetition than refNominal; a normalized time is a host time
// divided by it.
func (r *rep) slowdown() float64 { return r.ref.Seconds() / refNominal.Seconds() }

// runRep runs one repetition: a fresh session and its matrix. Spans go
// to tr unless it is nil.
func runRep(ctx context.Context, w workload, seed uint64, tr *tracer) (*rep, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start, cpu0 := clock(), cpuTime()
	lr, err := runLab(ctx, w.lab, scale, seed, labPar)
	wall, cpu := clock()-start, cpuTime()-cpu0
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r := &rep{start: start, wall: wall, cpu: cpu, setup: lr.setup, records: uint64(len(lr.cells)) * uint64(cores) * w.perCore(),
		cells: lr.cells, builds: lr.builds, hits: lr.hits, matrix: lr.matrix, peakRSS: peak}
	if tr != nil {
		root := tr.add(0, "rep", interval{start, start + wall})
		run := tr.add(root, "lab.run", interval{start, start + wall})
		for _, c := range r.cells {
			tr.add(run, "lab.cell."+c.kind.String(), interval{c.start, c.end})
		}
	}
	return r, nil
}

// release drops a checked repetition's results. A Results keeps its
// prefetcher reachable (through the stream-length distribution), so
// holding every repetition's would grow the heap with the run's length;
// metrics take their exact counts from the warm-up repetition instead.
func (r *rep) release() {
	for i := range r.cells {
		r.cells[i].res = nil
	}
	r.matrix = nil
}

// params are one benchmark run's settings.
type params struct {
	seed         uint64
	seconds      float64
	traced       bool
	updateGolden bool
	shrink       uint64
}

// outcome is everything one run measured.
type outcome struct {
	w         workload
	attempted int
	failed    int
	failures  []string
	warm      *rep      // untimed warm-up repetition
	counts    totals    // the warm-up's exact counters
	reps      []*rep    // timed repetitions
	golden    bool      // checked against a golden file
	proc      procDelta // summed over the counted timed repetitions
	replay    *replays  // traced runs only
	tr        *tracer   // traced runs only
}

// minReps is the fewest timed repetitions a run makes, however short
// its time budget.
const minReps = 2

// measure runs the workload: one untimed warm-up repetition, then timed
// repetitions for p.seconds, checking every simulated result. Once
// minReps have run, the repetition the time budget ends in is cancelled
// and not counted, so a run measures for p.seconds and no longer.
// Traced runs record spans of every repetition and finish with the
// layer replays.
func measure(ctx context.Context, w workload, p params) (*outcome, error) {
	o := &outcome{w: w}
	if p.traced {
		o.tr = &tracer{workload: w.name}
	}
	g, err := loadGolden(p.seed, w.name)
	if err != nil {
		return nil, err
	}
	if p.updateGolden || p.shrink != 1 {
		g = nil // goldens pin full-size runs
	}
	var want map[string]string
	if g != nil {
		o.golden = true
		want = map[string]string{}
		for _, c := range g.Cells {
			want[c.key()] = c.Hash
		}
	}

	o.warm, err = runRep(ctx, w, p.seed, o.tr)
	if err != nil {
		return nil, err
	}
	if want == nil {
		// Without a golden the warm-up repetition is the reference every
		// timed repetition must reproduce.
		if want, err = hashCells(o.warm.cells); err != nil {
			return nil, err
		}
	}
	o.check(o.warm, want)
	if p.updateGolden {
		if err := writeGolden(p, o, want); err != nil {
			return nil, err
		}
	}
	o.counts = sumCells(w, o.warm.cells)
	o.warm.release()

	budget := time.Duration(p.seconds * float64(time.Second))
	begin := clock()
	// The reference kernel runs before the first timed repetition and
	// after each one, each time on a collected heap (see hostref.go).
	refBefore := runRef(p.shrink)
	for {
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if len(o.reps) >= minReps {
			left := budget - (clock() - begin)
			if left <= 0 {
				break
			}
			rctx, cancel = context.WithTimeout(ctx, left)
		}
		// Each repetition starts from a collected heap with its free
		// memory returned to the OS, so its resident set is its own.
		debug.FreeOSMemory()
		p0 := readProc()
		r, err := runRep(rctx, w, p.seed, o.tr)
		cancel()
		if err != nil {
			if ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
				break // cut by the time budget
			}
			return nil, err
		}
		o.proc = o.proc.add(readProc().sub(p0))
		o.check(r, want)
		r.release()
		refAfter := runRef(p.shrink)
		r.ref, refBefore = (refBefore+refAfter)/2, refAfter
		o.reps = append(o.reps, r)
	}

	if p.traced {
		if o.replay, err = runReplays(ctx, w, p, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// hashCells maps each cell's key to its result hash.
func hashCells(cells []cellOut) (map[string]string, error) {
	m := make(map[string]string, len(cells))
	for _, c := range cells {
		if c.res == nil {
			continue
		}
		h, err := resultHash(c.res)
		if err != nil {
			return nil, err
		}
		m[c.row+"/"+c.variant] = h
	}
	return m, nil
}

// check counts a repetition's cells as attempted, and as failed when one
// errored or produced a result whose hash differs from the reference.
func (o *outcome) check(r *rep, want map[string]string) {
	for _, c := range r.cells {
		o.attempted++
		key := c.row + "/" + c.variant
		var why string
		switch {
		case c.err != nil:
			why = c.err.Error()
		case c.res == nil:
			why = "no result"
		default:
			h, err := resultHash(c.res)
			switch {
			case err != nil:
				why = err.Error()
			case h != want[key]:
				why = "result differs from the reference"
			}
		}
		if why != "" {
			o.failed++
			o.failures = append(o.failures, key+": "+why)
		}
	}
}

// writeGolden records the warm-up repetition's results as the golden
// outputs of the workload at p.seed.
func writeGolden(p params, o *outcome, want map[string]string) error {
	if o.failed > 0 {
		return fmt.Errorf("not recording a golden from a failed repetition: %v", o.failures)
	}
	exports, err := exportCells(o.warm.matrix)
	if err != nil {
		return err
	}
	g := &goldenWorkload{}
	for i, c := range o.warm.cells {
		g.Cells = append(g.Cells, goldenCell{Row: c.row, Variant: c.variant, Hash: want[c.row+"/"+c.variant], Export: exports[i]})
	}
	return storeGolden(p.seed, o.w.name, g)
}
