package sim

import (
	"stms/internal/dram"
	"stms/internal/mem"
	"stms/internal/prefetch"
	"stms/internal/stats"
	"stms/internal/trace"
)

// EngineCounts is the numeric snapshot of prefetch.EngineStats used for
// windowed deltas (the stream-length CDF is reported whole-run).
type EngineCounts struct {
	Lookups, LookupHits            uint64
	Adopted, Abandoned, Resumed    uint64
	DepthStops, Exhausted          uint64
	Issued, Filtered               uint64
	FullHits, PartialHits, Evicted uint64
}

func engineCounts(s *prefetch.EngineStats) EngineCounts {
	return EngineCounts{
		Lookups: s.Lookups, LookupHits: s.LookupHits,
		Adopted: s.Adopted, Abandoned: s.Abandoned, Resumed: s.Resumed,
		DepthStops: s.DepthStops, Exhausted: s.Exhausted,
		Issued: s.IssuedPrefetches, Filtered: s.FilteredOnChip,
		FullHits: s.FullHits, PartialHits: s.PartialHits,
		Evicted: s.EvictedUnused,
	}
}

// Sub returns the element-wise difference c - o.
func (c EngineCounts) Sub(o EngineCounts) EngineCounts {
	return EngineCounts{
		Lookups: c.Lookups - o.Lookups, LookupHits: c.LookupHits - o.LookupHits,
		Adopted: c.Adopted - o.Adopted, Abandoned: c.Abandoned - o.Abandoned,
		Resumed: c.Resumed - o.Resumed, DepthStops: c.DepthStops - o.DepthStops,
		Exhausted: c.Exhausted - o.Exhausted, Issued: c.Issued - o.Issued,
		Filtered: c.Filtered - o.Filtered, FullHits: c.FullHits - o.FullHits,
		PartialHits: c.PartialHits - o.PartialHits, Evicted: c.Evicted - o.Evicted,
	}
}

// Results reports one simulation run (measurement window only, except the
// stream-length CDF which covers the whole run). A Results is a value
// that owns its data: no field points into the simulator that produced
// it, so holding one keeps none of that simulator's meta-data alive.
type Results struct {
	Workload string
	Variant  string

	// Timed-mode metrics (zero in functional mode).
	ElapsedCycles uint64
	Instrs        uint64
	IPC           float64
	MLP           float64
	DRAMUtil      float64

	// Reference-stream accounting.
	Records uint64 // loads processed in the window
	L1Hits  uint64
	L2Hits  uint64

	// Coverage accounting (§5.2: fraction of L2 misses eliminated).
	CoveredFull    uint64
	CoveredPartial uint64
	Uncovered      uint64 // L2 demand read misses that reached DRAM

	// Traffic (timed mode), window delta.
	Traffic dram.Traffic

	Engine EngineCounts

	// Frames counts the whole-run frame-source activity (frames and
	// records decoded into the drivers' columnar batches, warm-up
	// included). Frame boundaries are a pure function of the trace
	// identity, so the counts — like every other field — are identical
	// between live generation and tape replay.
	Frames trace.FrameStats

	// StreamLens is the whole-run stream-length distribution (Fig. 6
	// left), a copy of the stream engine's; nil for variants without a
	// stream engine.
	StreamLens *stats.CDF

	// Phases windows the run per scenario phase (whole-run accounting,
	// independent of the warm/measure split); nil for plain workloads
	// and single-phase scenarios. Windows are delimited by counter
	// snapshots, so their fields sum exactly to the whole-run totals.
	Phases []PhaseWindow
}

// PhaseWindow is the slice of a run's counters attributable to one
// scenario phase. A phase is "entered" at its per-core record offset
// and closed when every core has crossed the next phase's offset (the
// timed cores skew slightly; attribution at the boundary follows the
// snapshot, deterministically).
type PhaseWindow struct {
	Name  string
	Start uint64 // per-core record offset where the phase begins

	Records uint64 // loads observed in the window (all cores)
	L1Hits  uint64
	L2Hits  uint64

	CoveredFull    uint64
	CoveredPartial uint64
	Uncovered      uint64

	// Timed-mode metrics (zero in functional mode).
	ElapsedCycles uint64
	Instrs        uint64
	IPC           float64
}

// BaselineMisses returns the phase's would-be L2 demand misses without
// the temporal prefetcher (covered + uncovered), as Results does for
// the whole run.
func (w *PhaseWindow) BaselineMisses() uint64 {
	return w.CoveredFull + w.CoveredPartial + w.Uncovered
}

// Coverage returns the fraction of the phase's baseline misses the
// temporal prefetcher eliminated (fully or partially).
func (w *PhaseWindow) Coverage() float64 {
	return stats.Ratio(float64(w.CoveredFull+w.CoveredPartial), float64(w.BaselineMisses()))
}

// BaselineMisses returns what the L2 demand-miss count would have been
// without the temporal prefetcher (covered + uncovered — cache contents
// are unaffected by prefetch-buffer hits, so this is exact).
func (r *Results) BaselineMisses() uint64 {
	return r.CoveredFull + r.CoveredPartial + r.Uncovered
}

// Coverage returns the fraction of baseline misses eliminated (fully or
// partially).
func (r *Results) Coverage() float64 {
	return stats.Ratio(float64(r.CoveredFull+r.CoveredPartial), float64(r.BaselineMisses()))
}

// FullCoverage returns the fully-hidden fraction only.
func (r *Results) FullCoverage() float64 {
	return stats.Ratio(float64(r.CoveredFull), float64(r.BaselineMisses()))
}

// SpeedupOver returns the fractional performance improvement of r over a
// matched baseline run (same workload, same trace).
func (r *Results) SpeedupOver(base *Results) float64 {
	if base.IPC == 0 {
		return 0
	}
	return r.IPC/base.IPC - 1
}

// Overhead is Figure 7's traffic breakdown, each component normalized to
// useful data bytes.
type Overhead struct {
	Record    float64 // history appends + end-marks
	Update    float64 // index update reads + write-backs
	Lookup    float64 // index lookups + history stream reads
	Erroneous float64 // fetched-but-unused streamed blocks
}

// Total sums the components.
func (o Overhead) Total() float64 { return o.Record + o.Update + o.Lookup + o.Erroneous }

// OverheadTraffic computes the Figure 7 breakdown. Useful bytes are demand
// fetches, writebacks, and consumed streamed blocks (data the program
// needed, however it arrived); stride traffic belongs to the base system
// and is excluded from both sides.
func (r *Results) OverheadTraffic() Overhead {
	t := &r.Traffic
	used := r.CoveredFull + r.CoveredPartial
	streamed := t.Accesses[dram.StreamData]
	erroneous := uint64(0)
	if streamed > used {
		erroneous = streamed - used
	}
	useful := float64(t.Bytes(dram.Demand) + t.Bytes(dram.Writeback) + used*mem.BlockBytes)
	return Overhead{
		Record:    stats.Ratio(float64(t.Bytes(dram.HistoryAppend)+t.Bytes(dram.EndMarkWrite)), useful),
		Update:    stats.Ratio(float64(t.Bytes(dram.IndexUpdateRd)+t.Bytes(dram.IndexUpdateWr)), useful),
		Lookup:    stats.Ratio(float64(t.Bytes(dram.IndexLookup)+t.Bytes(dram.HistoryRead)), useful),
		Erroneous: stats.Ratio(float64(erroneous*mem.BlockBytes), useful),
	}
}

// OverheadPerBaselineRead is Figure 1 (right)'s metric: overhead memory
// accesses (meta-data plus erroneous prefetches) per baseline demand read.
func (r *Results) OverheadPerBaselineRead() (lookup, update, erroneous float64) {
	t := &r.Traffic
	base := float64(r.BaselineMisses())
	used := r.CoveredFull + r.CoveredPartial
	streamed := t.Accesses[dram.StreamData]
	errAcc := uint64(0)
	if streamed > used {
		errAcc = streamed - used
	}
	lookup = stats.Ratio(float64(t.Accesses[dram.IndexLookup]+t.Accesses[dram.HistoryRead]), base)
	update = stats.Ratio(float64(t.Accesses[dram.IndexUpdateRd]+t.Accesses[dram.IndexUpdateWr]+
		t.Accesses[dram.HistoryAppend]+t.Accesses[dram.EndMarkWrite]), base)
	erroneous = stats.Ratio(float64(errAcc), base)
	return lookup, update, erroneous
}
