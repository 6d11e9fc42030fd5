package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stms"
)

// metric is one reported number. Stats, when set, is the distribution
// the value was taken from.
type metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Stats *summary `json:"stats,omitempty"`
}

// med reports the median of xs with its quartiles and count.
func med(name, unit string, xs []float64) metric {
	s := summarize(xs)
	return metric{Name: name, Unit: unit, Value: s.Median, Stats: &s}
}

func (o *outcome) perRep(f func(r *rep) float64) []float64 {
	xs := make([]float64, len(o.reps))
	for i, r := range o.reps {
		xs[i] = f(r)
	}
	return xs
}

// endToEnd is what a user of the simulator sees, measured with tracing
// off: throughput, set-up time and memory, each the median over the
// timed repetitions. Throughput is records per second of the process's
// processor time (user + system, every thread, the garbage collector's
// included), which a hypervisor's steal does not inflate the way it does
// wall time. Throughput and set-up time are normalized to the reference
// host speed (see hostref.go).
func endToEnd(o *outcome) []metric {
	return []metric{
		med("norm_records_per_cpu_s", "records/s", o.perRep(func(r *rep) float64 {
			return float64(r.records) / r.cpu.Seconds() * r.slowdown()
		})),
		med("setup_s", "s", o.perRep(func(r *rep) float64 { return r.setup.Seconds() / r.slowdown() })),
		med("peak_rss_mb", "MB", o.perRep(func(r *rep) float64 { return r.peakRSS })),
	}
}

// cellSeconds pools the host seconds of every lab cell, from its
// CellStarted to its CellFinished event, of the timed repetitions.
func (o *outcome) cellSeconds() []float64 {
	var xs []float64
	for _, r := range o.reps {
		for _, c := range r.cells {
			xs = append(xs, (c.end - c.start).Seconds())
		}
	}
	return xs
}

// totals sums the exact counters of a repetition's results.
type totals struct {
	timed                   bool // the workload runs the timed driver
	records, l1Hits, l2Hits float64
	prefMiss                float64 // baseline misses of cells with a temporal prefetcher
	dramReq, mshrFills      float64
	frames, frameRecords    float64
	stmsMeta, stmsTimedMiss float64
	issued, useful          float64
	lookups, lookupHits     float64
	dramUtil                []float64
	stmsIPC, baseIPC        map[string]float64 // by row
	stmsCoverage            []float64
}

func sumCells(w workload, cells []cellOut) totals {
	timed := w.lab.mode == stms.Timed
	t := totals{timed: timed, stmsIPC: map[string]float64{}, baseIPC: map[string]float64{}}
	for _, c := range cells {
		r := c.res
		if r == nil {
			continue
		}
		t.records += float64(r.Records)
		t.l1Hits += float64(r.L1Hits)
		t.l2Hits += float64(r.L2Hits)
		t.frames += float64(r.Frames.Frames)
		t.frameRecords += float64(r.Frames.Records)
		if c.kind != stms.None {
			t.prefMiss += float64(baselineMisses(r))
		}
		if timed {
			t.dramReq += float64(dramRequests(r))
			t.mshrFills += float64(mshrFills(r))
			t.dramUtil = append(t.dramUtil, r.DRAMUtil)
		}
		switch c.kind {
		case stms.STMS:
			t.issued += float64(r.Engine.Issued)
			t.useful += float64(r.Engine.FullHits + r.Engine.PartialHits)
			t.lookups += float64(r.Engine.Lookups)
			t.lookupHits += float64(r.Engine.LookupHits)
			t.stmsIPC[c.row] = r.IPC
			t.stmsCoverage = append(t.stmsCoverage, coverage(r))
			if timed {
				t.stmsMeta += float64(metaAccesses(r))
				t.stmsTimedMiss += float64(baselineMisses(r))
			}
		case stms.None:
			t.baseIPC[c.row] = r.IPC
		}
	}
	return t
}

// speedup is the geometric mean over rows of STMS IPC ÷ baseline IPC.
func (t totals) speedup() float64 {
	var logs []float64
	for row, s := range t.stmsIPC {
		if b := t.baseIPC[row]; b > 0 && s > 0 {
			logs = append(logs, math.Log(s/b))
		}
	}
	if len(logs) == 0 {
		return 0
	}
	return math.Exp(mean(logs))
}

// budgetRow is one layer's share of the end-to-end cost per record.
type budgetRow struct {
	Layer        string  `json:"layer"`
	NsPerOp      float64 `json:"ns_per_op"`
	OpsPerRecord float64 `json:"ops_per_record"`
	Nested       string  `json:"nested,omitempty"` // enclosing replay, when not summed
}

func (b budgetRow) nsPerRecord() float64 { return b.NsPerOp * b.OpsPerRecord }

// budget attributes the end-to-end host ns per simulated record (wall ×
// concurrent operations ÷ records) to layers: each layer's replay cost
// per operation times the operations per record the workload's exact
// counters show. Rows marked nested run inside another row's replay and
// are not summed; the remainder is reported, never hidden.
func budget(o *outcome) (e2e float64, rows []budgetRow) {
	w, rp := o.w, o.replay
	e2e = median(o.perRep(func(r *rep) float64 {
		return float64(r.wall.Nanoseconds()) * labPar / float64(r.records)
	}))
	t := o.counts
	timedShare := 0.0 // the timed-only cpu layer
	if t.timed {
		timedShare = 1
	}
	l1Miss := ratio(t.records-t.l1Hits, t.records)
	l2Miss := ratio(t.records-t.l1Hits-t.l2Hits, t.records)
	// The replays' own ns/op are measured at the load of the first row's
	// timed STMS run; the event replay's load is not measured, so it is
	// shown but not summed (its cost is inside the cpu and dram replays).
	simRecords := float64(o.warm.records)
	buildNs := median(o.perRep(func(r *rep) float64 { return buildNsPerRecord(w, r) }))
	rows = []budgetRow{
		{Layer: "trace.build", NsPerOp: buildNs, OpsPerRecord: ratio(float64(o.warm.builds)*float64(cores)*float64(w.perCore()), simRecords)},
		{Layer: "trace.decode", NsPerOp: nsPer(rp.decode, float64(rp.records)), OpsPerRecord: ratio(t.frameRecords, simRecords)},
		{Layer: "cpu", NsPerOp: nsPer(rp.cpu, float64(rp.records)), OpsPerRecord: timedShare},
		{Layer: "cache", NsPerOp: nsPer(rp.cache, float64(rp.cacheOps)), OpsPerRecord: 1 + 2*l1Miss + l2Miss},
		{Layer: "cache.mshr", NsPerOp: nsPer(rp.mshr, float64(rp.mshrOps)), OpsPerRecord: 2 * ratio(t.mshrFills, t.records)},
		{Layer: "dram", NsPerOp: nsPer(rp.dram, float64(rp.dramN)), OpsPerRecord: ratio(t.dramReq, t.records)},
		{Layer: "prefetch", NsPerOp: nsPer(rp.prefetch, float64(len(rp.in.misses))), OpsPerRecord: ratio(t.prefMiss, t.records)},
		{Layer: "core.index", NsPerOp: nsPer(rp.index, float64(rp.indexOps)), OpsPerRecord: ratio(t.prefMiss, t.records) * ratio(float64(rp.indexOps), float64(len(rp.in.misses))), Nested: "prefetch"},
		{Layer: "event", NsPerOp: nsPer(rp.event, float64(rp.eventN)), Nested: "cpu, dram"},
	}
	return e2e, rows
}

// attributed sums the budget's top-level rows.
func attributed(rows []budgetRow) float64 {
	var s float64
	for _, r := range rows {
		if r.Nested == "" {
			s += r.nsPerRecord()
		}
	}
	return s
}

// buildNsPerRecord is a repetition's tape materialization time per tape
// record.
func buildNsPerRecord(w workload, r *rep) float64 {
	return ratio(float64(r.setup.Nanoseconds()), float64(r.builds)*float64(cores)*float64(w.perCore()))
}

// perLayer is the traced run's per-layer metrics: work counts and hit
// ratios from the workload's exact counters, host time per operation
// from the layer replays, and the run's own lifecycle and process
// numbers.
func perLayer(o *outcome) []metric {
	w, rp := o.w, o.replay
	t := o.counts
	repEnd := func(r *rep) time.Duration { return r.start + r.wall }

	// The lab's pool, per repetition.
	busy := o.perRep(func(r *rep) float64 {
		var sum time.Duration
		for _, c := range r.cells {
			sum += c.end - c.start
		}
		return ratio(sum.Seconds(), r.wall.Seconds()*labPar)
	})
	tail := o.perRep(func(r *rep) float64 {
		ends := make([]time.Duration, len(r.cells))
		for i, c := range r.cells {
			ends[i] = c.end
		}
		slices.Sort(ends)
		return (repEnd(r) - ends[max(len(ends)-labPar, 0)]).Seconds()
	})
	overhead := o.perRep(func(r *rep) float64 {
		ivs := make([]interval, len(r.cells))
		for i, c := range r.cells {
			ivs[i] = interval{c.start, c.end}
		}
		return (r.wall - covered(interval{r.start, repEnd(r)}, ivs)).Seconds()
	})

	// The stream layer: the replay tape streamed through the fault proxy.
	st := rp.stream
	wireBytes, resumeGap := st.proxy.stats()

	speedup := t.speedup()
	if speedup == 0 {
		speedup = ratio(rp.sim["stms"].res.IPC, rp.sim["baseline"].res.IPC)
	}
	metaPerMiss := ratio(t.stmsMeta, t.stmsTimedMiss)
	if t.stmsTimedMiss == 0 {
		r := rp.sim["stms"].res
		metaPerMiss = ratio(float64(metaAccesses(&r)), float64(baselineMisses(&r)))
	}
	e2e, rows := budget(o)
	simNs := func(k string) float64 { return nsPer(rp.sim[k].d, float64(rp.records)) }

	cellS := o.cellSeconds()
	return []metric{
		{Name: "lab.records_per_cpu_s", Unit: "records/s", Value: o.timedRecords() / o.timedSeconds(func(r *rep) time.Duration { return r.cpu })},
		{Name: "lab.records_per_wall_s", Unit: "records/s", Value: o.timedRecords() / o.timedSeconds(func(r *rep) time.Duration { return r.wall })},
		med("lab.cell_s_p50", "s", cellS),
		{Name: "lab.cell_s_p90", Unit: "s", Value: quantile(cellS, 0.9)},
		med("lab.pool_busy_frac", "fraction", busy),
		med("lab.tail_s", "s", tail),
		med("lab.overhead_s", "s", overhead),
		{Name: "lab.tape_builds", Unit: "count", Value: float64(o.warm.builds)},
		{Name: "lab.tape_hits", Unit: "count", Value: float64(o.warm.hits)},

		med("trace.build_ns_per_record", "ns/record", o.perRep(func(r *rep) float64 { return buildNsPerRecord(w, r) })),
		{Name: "trace.decode_ns_per_record", Unit: "ns/record", Value: nsPer(rp.decode, float64(rp.records))},
		{Name: "trace.tape_bytes_per_record", Unit: "B/record", Value: ratio(float64(rp.tapeBytes), float64(rp.records))},
		{Name: "trace.frames", Unit: "count", Value: t.frames},

		{Name: "stream.wire_bytes_per_record", Unit: "B/record", Value: ratio(float64(wireBytes), float64(st.records))},
		{Name: "stream.consumer_wait_frac", Unit: "fraction", Value: ratio(st.wait.Seconds(), st.op.Seconds())},
		{Name: "stream.resume_gap_ms_max", Unit: "ms", Value: float64(resumeGap.Nanoseconds()) / 1e6},
		{Name: "stream.replay_frac", Unit: "fraction", Value: ratio(float64(st.framesSent)-float64(st.framesRecv), float64(st.framesRecv))},
		{Name: "stream.reconnects", Unit: "count", Value: float64(st.reconnects)},
		{Name: "stream.connect_s", Unit: "s", Value: st.connect.Seconds()},

		{Name: "sim.baseline_ns_per_record", Unit: "ns/record", Value: simNs("baseline")},
		{Name: "sim.ideal_ns_per_record", Unit: "ns/record", Value: simNs("ideal")},
		{Name: "sim.stms_ns_per_record", Unit: "ns/record", Value: simNs("stms")},
		{Name: "sim.functional_ns_per_record", Unit: "ns/record", Value: simNs("functional")},
		{Name: "sim.self_ns_per_record", Unit: "ns/record", Value: ratio(float64((st.op - st.wait).Nanoseconds()), float64(st.records))},
		{Name: "sim.unattributed_frac", Unit: "fraction", Value: ratio(e2e-attributed(rows), e2e)},
		{Name: "sim.stms_coverage", Unit: "fraction", Value: mean(t.stmsCoverage)},
		{Name: "sim.stms_speedup", Unit: "ratio", Value: speedup},

		{Name: "cpu.ns_per_record", Unit: "ns/record", Value: nsPer(rp.cpu, float64(rp.records))},

		{Name: "cache.ns_per_access", Unit: "ns/access", Value: nsPer(rp.cache, float64(rp.cacheOps))},
		{Name: "cache.mshr_ns_per_op", Unit: "ns/op", Value: nsPer(rp.mshr, float64(rp.mshrOps))},
		{Name: "cache.l1_hit_frac", Unit: "fraction", Value: ratio(t.l1Hits, t.records)},
		{Name: "cache.l2_hit_frac", Unit: "fraction", Value: ratio(t.l2Hits, t.records-t.l1Hits)},

		{Name: "dram.ns_per_request", Unit: "ns/request", Value: nsPer(rp.dram, float64(rp.dramN))},
		{Name: "dram.requests_per_krecord", Unit: "requests/krecord", Value: 1000 * ratio(t.dramReq, t.records)},
		{Name: "dram.util", Unit: "fraction", Value: mean(t.dramUtil)},

		{Name: "event.ns_per_event", Unit: "ns/event", Value: nsPer(rp.event, float64(rp.eventN))},

		{Name: "core.index_ns_per_op", Unit: "ns/op", Value: nsPer(rp.index, float64(rp.indexOps))},
		{Name: "core.index_hit_frac", Unit: "fraction", Value: ratio(float64(rp.indexHits), float64(len(rp.in.misses)))},
		{Name: "core.meta_accesses_per_miss", Unit: "ratio", Value: metaPerMiss},

		{Name: "prefetch.ns_per_miss", Unit: "ns/miss", Value: nsPer(rp.prefetch, float64(len(rp.in.misses)))},
		{Name: "prefetch.useful_frac", Unit: "fraction", Value: ratio(t.useful, t.issued)},
		{Name: "prefetch.lookup_hit_frac", Unit: "fraction", Value: ratio(t.lookupHits, t.lookups)},

		{Name: "proc.cpu_util", Unit: "fraction", Value: ratio(o.proc.cpu.Seconds(), o.proc.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))},
		{Name: "proc.gc_cpu_frac", Unit: "fraction", Value: ratio(o.proc.gcCPU, o.proc.totalCPU)},
		{Name: "proc.allocs_per_krecord", Unit: "allocs/krecord", Value: 1000 * ratio(float64(o.proc.mallocs), o.timedRecords())},
		{Name: "proc.alloc_mb_per_mrecord", Unit: "MB/Mrecord", Value: 1e6 * ratio(float64(o.proc.allocBytes)/(1<<20), o.timedRecords())},
		{Name: "proc.trace_overhead_frac", Unit: "fraction", Value: o.tr.overheadFrac()},
	}
}

func (o *outcome) timedRecords() float64 {
	var n float64
	for _, r := range o.reps {
		n += float64(r.records)
	}
	return n
}

// timedSeconds sums one duration of every timed repetition.
func (o *outcome) timedSeconds(d func(r *rep) time.Duration) float64 {
	var sum time.Duration
	for _, r := range o.reps {
		sum += d(r)
	}
	return sum.Seconds()
}

// procSample is a reading of the process's own counters.
type procSample struct {
	wall, cpu           time.Duration
	gcCPU, totalCPU     float64 // runtime/metrics CPU-seconds
	mallocs, allocBytes uint64
}

// procDelta is the difference of two samples.
type procDelta = procSample

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// cpuTime is the process's processor time so far, user and system, over
// every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return procSample{
		wall:       clock(),
		cpu:        cpuTime(),
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

func (a procSample) sub(b procSample) procDelta {
	return procDelta{
		wall: a.wall - b.wall, cpu: a.cpu - b.cpu,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
		mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes,
	}
}

func (a procDelta) add(b procDelta) procDelta {
	return procDelta{
		wall: a.wall + b.wall, cpu: a.cpu + b.cpu,
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
		mallocs: a.mallocs + b.mallocs, allocBytes: a.allocBytes + b.allocBytes,
	}
}

// peakRSSMB is the run's largest peak resident set: that of the warm-up,
// of a timed repetition, or of what ran after the last reset (a cancelled
// repetition, a traced run's replays).
func (o *outcome) peakRSSMB() float64 {
	peak, _ := peakRSSMB() // 0 when unreadable; every repetition read it
	for _, r := range append([]*rep{o.warm}, o.reps...) {
		peak = max(peak, r.peakRSS)
	}
	return peak
}

// resetPeakRSS restarts the kernel's count of the process's peak
// resident set (VmHWM) from the current resident set, by writing 5 to
// /proc/self/clear_refs.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM in
// /proc/self/status) since the last resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
