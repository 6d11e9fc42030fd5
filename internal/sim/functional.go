package sim

import (
	"context"
	"fmt"

	"stms/internal/cache"
	"stms/internal/ckpt"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
	"stms/internal/prefetch/stride"
	"stms/internal/trace"
)

// functional is the fast zero-latency driver: identical cache and
// prefetcher state machines as the timed system, but memory responds
// instantly and time is the record counter. Used for idealized meta-data
// capacity sweeps (Figs. 1 left, 5, 6), where coverage is by definition
// independent of timing.
//
// One base system — the L1s, the L2, the stride prefetcher and their
// counters — drives one or more prefetcher variants in lockstep.
// Variants reach the hierarchy only through the read-only funcEnv, and
// every fill happens whatever they do, so the base evolves identically
// under any variant: a sweep simulates it once per row instead of once
// per cell, and each variant's Results equal its solo run's.
type functional struct {
	cfg   Config
	spec  trace.Spec
	now   uint64
	l1    []*cache.Cache
	l2    *cache.Cache
	strid *stride.Prefetcher
	vars  []*funcVariant

	// strideIssue is the premade stride-candidate continuation (one
	// allocation per run instead of one per load).
	strideIssue func(cand uint64)

	dirtyThresh uint64

	// cnt and cntSnap hold the base system's counters (Loads, L1Hits,
	// L2Hits, StrideIssued); the variant fields live on each variant
	// (see merge).
	cnt     counters
	cntSnap counters

	// logs holds the per-core history logs a group's variants share,
	// keyed by core and history capacity (funcEnv.HistoryLog); nil for a
	// group of one, whose backends keep private logs.
	logs map[logKey]*prefetch.Log
}

type logKey struct {
	core       int
	capEntries uint64
}

// funcVariant is one prefetcher driven by a functional base system: its
// prefetcher, its coverage counters (PBFull, PBPartial, L2DemandMisses),
// its warm-boundary engine snapshot and its phase windows.
type funcVariant struct {
	ps   PrefSpec
	pref built

	// warmRec is the traffic-free warming append when the temporal
	// backend offers one (see prefetch.WarmRecorder), nil otherwise;
	// resolved once at construction so metaStep pays no per-record
	// type assertion.
	warmRec func(core int, blk uint64)
	// hint is the backend's index-line host prefetch (built.hint), or nil.
	hint func(blk uint64)

	cnt     counters
	cntSnap counters
	engSnap EngineCounts
	phases  *phaseTracker
}

// merge returns the base counters b with the variant fields taken from v.
func merge(b, v counters) counters {
	b.PBFull, b.PBPartial, b.L2DemandMisses = v.PBFull, v.PBPartial, v.L2DemandMisses
	return b
}

// funcEnv satisfies prefetch.Env with synchronous, traffic-free responses
// (the literal "magic zero-latency" meta-data of §5.2).
type funcEnv struct{ s *functional }

func (e funcEnv) Now() uint64 { return e.s.now }

func (e funcEnv) MetaRead(class dram.Class, done func(uint64)) {
	if done != nil {
		done(e.s.now)
	}
}

func (e funcEnv) MetaReadH(class dram.Class, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.s.now, kind, a, b)
}

func (e funcEnv) MetaWrite(dram.Class) {}

func (e funcEnv) Fetch(core int, blk uint64, done func(uint64)) {
	if done != nil {
		done(e.s.now)
	}
}

func (e funcEnv) FetchH(core int, blk uint64, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.s.now, kind, a, b)
}

func (e funcEnv) OnChip(core int, blk uint64) bool {
	return e.s.l1[core].Probe(blk) || e.s.l2.Probe(blk)
}

// HistoryLog implements prefetch.LogSharer. Every variant of a group
// records the same L2-miss sequence, one Record per miss in variant
// order, so the variants whose histories have the same capacity share
// one log per core instead of each holding a copy (DESIGN.md §6). A
// group of one — every checkpointed or resumed run, and the sampling
// scheduler's warming pass — keeps private logs.
func (e funcEnv) HistoryLog(core int, capEntries uint64) *prefetch.Log {
	if e.s.logs == nil {
		return nil
	}
	k := logKey{core, capEntries}
	l := e.s.logs[k]
	if l == nil {
		l = prefetch.NewLog(capEntries)
		e.s.logs[k] = l
	}
	return l
}

// newFunctional constructs the zero-latency system over one variant per
// spec (also used by the sampling scheduler's warming pass).
func newFunctional(cfg Config, scaled trace.Spec, ps ...PrefSpec) *functional {
	s := &functional{
		cfg:         cfg,
		spec:        scaled,
		dirtyThresh: dirtyThreshold(scaled.DirtyFrac),
	}
	s.l2 = cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2(), Assoc: cfg.L2Assoc})
	s.strid = stride.New(cfg.Stride)
	s.strideIssue = s.stridePrefetch
	if len(ps) > 1 {
		s.logs = make(map[logKey]*prefetch.Log)
	}
	for _, p := range ps {
		v := &funcVariant{ps: p, pref: buildPrefetcher(funcEnv{s}, cfg, p)}
		v.hint = v.pref.hint()
		if w, ok := v.pref.temporal.(prefetch.WarmRecorder); ok {
			v.warmRec = w.RecordWarm
		}
		s.vars = append(s.vars, v)
	}
	for i := 0; i < cfg.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1(), Assoc: cfg.L1Assoc}))
	}
	return s
}

// runFunctional drives the zero-latency system over one run's per-core
// frame sources, round-robin, one record per core per tick, and returns
// one Results per variant in ps order; phase marks, when present,
// request per-phase stat windows in the Results.
func runFunctional(ctx context.Context, cfg Config, f feed, ps []PrefSpec, o *runOpts) ([]Results, error) {
	srcs := f.srcs
	defer func() {
		for _, src := range srcs {
			src.Close()
		}
	}()
	scaled, src, opt := f.spec, f.src, o
	s := newFunctional(cfg, scaled, ps...)

	// Phase boundaries depend only on the shared record counts, but each
	// variant windows its own counters.
	snaps := make([]func() phaseSnap, len(s.vars))
	for k, v := range s.vars {
		v.phases = newPhaseTracker(f.marks, cfg.Cores)
		snaps[k] = func() phaseSnap { return phaseSnap{cnt: merge(s.cnt, v.cnt)} }
	}
	phased := s.vars[0].phases != nil
	seen := make([]uint64, cfg.Cores)

	// Frame-at-a-time consumption: each core's records arrive in columnar
	// frames from its frame source, and the round-robin interleave reads
	// straight from the frame columns, one record per core in turn.
	frames := make([]*trace.Frame, cfg.Cores)
	pos := make([]int, cfg.Cores)
	framesRead := make([]uint64, cfg.Cores)

	ls := &funcLoopState{
		seen: seen, framesRead: framesRead, pos: pos,
		frames: frames, srcs: srcs,
	}
	var start uint64
	if opt.active() {
		if err := checkpointable(src, ps[0]); err != nil {
			return nil, err
		}
	}
	if opt.resume != nil {
		dec, err := openResume(opt.resume, identityOf("functional", src, cfg, ps[0], Sampling{}))
		if err != nil {
			return nil, err
		}
		if err := s.restoreFunc(dec, ls); err != nil {
			return nil, err
		}
		start = ls.i
	}
	nextCkpt := ^uint64(0)
	if opt.every > 0 {
		nextCkpt = nextBoundary(start, opt.every)
	}
	ckptN := 0

	warmTotal := cfg.WarmRecords * uint64(cfg.Cores)
	total := warmTotal + cfg.MeasureRecords*uint64(cfg.Cores)
loop:
	for i := start; i < total; i++ {
		if i%pollEvery == 0 && i > 0 {
			if opt.progress != nil {
				opt.progress(i, total)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if opt.stopCh != nil {
				select {
				case <-opt.stopCh:
					ls.i = i
					d := descFor("functional", src, cfg, ps[0], i)
					if err := writeCheckpoint(opt, d, func(enc *ckpt.Encoder) error { return s.snapshotFunc(enc, ls) }); err != nil {
						return nil, err
					}
					return nil, ErrCheckpointed
				default:
				}
			}
		}
		if i == nextCkpt {
			// Record boundary: the previous record is fully processed,
			// the warm-window snapshot for this index has not run yet —
			// the resumed loop re-enters exactly here.
			ls.i = i
			d := descFor("functional", src, cfg, ps[0], i)
			if err := writeCheckpoint(opt, d, func(enc *ckpt.Encoder) error { return s.snapshotFunc(enc, ls) }); err != nil {
				return nil, err
			}
			ckptN++
			nextCkpt = nextBoundary(i, opt.every)
			if opt.haltAfter > 0 && ckptN >= opt.haltAfter {
				return nil, ErrCheckpointed
			}
		}
		if i == warmTotal {
			s.cntSnap = s.cnt
			for _, v := range s.vars {
				v.cntSnap = v.cnt
				v.engSnap = engineCounts(v.pref.temporal.Stats())
			}
		}
		core := int(i % uint64(cfg.Cores))
		f := frames[core]
		k := pos[core]
		if f == nil || k == f.Len() {
			if f = srcs[core].NextFrame(); f == nil {
				break loop
			}
			frames[core] = f
			framesRead[core]++
			k = 0
		}
		pos[core] = k + 1
		s.now = i
		s.step(core, f.PC[k], f.Block[k])
		if phased {
			seen[core]++
			for k, v := range s.vars {
				v.phases.note(core, seen[core], snaps[k])
			}
		}
	}
	for _, v := range s.vars {
		if eng := v.pref.engine; eng != nil {
			eng.Flush()
		}
	}
	// A source that ran dry because its reader failed (truncated tape,
	// dropped stream, dead generator) must fail the run, not pass off the
	// records it did deliver as a complete result.
	var fs trace.FrameStats
	for _, src := range srcs {
		if err := src.Err(); err != nil {
			return nil, fmt.Errorf("sim: trace source failed mid-run: %w", err)
		}
		fs.Add(src.Stats())
	}

	rs := make([]Results, len(s.vars))
	for k, v := range s.vars {
		w := merge(s.cnt, v.cnt).sub(merge(s.cntSnap, v.cntSnap))
		r := Results{
			Workload:       scaled.Name,
			Variant:        v.ps.Kind.String(),
			Records:        w.Loads,
			L1Hits:         w.L1Hits,
			L2Hits:         w.L2Hits,
			CoveredFull:    w.PBFull,
			CoveredPartial: w.PBPartial,
			Uncovered:      w.L2DemandMisses,
			Engine:         engineCounts(v.pref.temporal.Stats()).Sub(v.engSnap),
			Frames:         fs,
		}
		if eng := v.pref.engine; eng != nil {
			r.StreamLens = eng.Stats().StreamLens.Clone()
		}
		if phased {
			r.Phases = v.phases.windows(snaps[k]())
		}
		rs[k] = r
	}
	return rs, nil
}

// step processes one reference through the hierarchy. An L2 miss goes
// to every variant before the shared fill, so each variant's OnChip
// queries see exactly the hierarchy a solo run would show it.
func (s *functional) step(core int, pc uint32, blk uint64) {
	s.cnt.Loads++
	if s.l1[core].Access(blk, false) {
		s.cnt.L1Hits++
		return
	}
	// Start loading each variant's index line now, so it arrives while
	// the stride and L2 lookups run (built.hint).
	for _, v := range s.vars {
		if v.hint != nil {
			v.hint(blk)
		}
	}
	// Stride trains on the L1-miss stream before the prefetch-buffer
	// probe, exactly as in the timed driver, so the base system behaves
	// identically across prefetcher variants.
	s.strid.Observe(pc, blk, s.strideIssue)
	// L2 hit takes precedence over a prefetch-buffer copy, exactly as in
	// the timed driver: covered misses are blocks that would have missed.
	if s.l2.Access(blk, false) {
		s.cnt.L2Hits++
		s.l1[core].Fill(blk, false)
		return
	}
	for _, v := range s.vars {
		v.miss(core, blk)
	}
	s.fill(core, blk)
}

// miss offers an L2 demand miss to the variant's prefetcher.
func (v *funcVariant) miss(core int, blk uint64) {
	t := v.pref.temporal
	switch t.Probe(core, blk, nil, 0, 0, 0).State {
	case prefetch.ProbeReady:
		v.cnt.PBFull++
		t.Record(core, blk, true)
	case prefetch.ProbeInFlight:
		// Synchronous fetches make ProbeInFlight impossible here; treat
		// it as covered if it ever appears.
		v.cnt.PBPartial++
		t.Record(core, blk, true)
	default:
		v.cnt.L2DemandMisses++
		t.TriggerMiss(core, blk)
		t.Record(core, blk, false)
	}
}

// metaStep replays one reference through the L2 and the temporal
// backends' history/index only — no L1s, no stride, no prefetch-buffer
// streaming. The sampling scheduler warms the deep prefix of a window
// with it: off-chip meta-data (history buffer, index table) accumulates
// over the whole run and never saturates, so it needs the full prefix,
// while the caches, stride table and prefetch buffer reach steady state
// within a short recent horizon that runs at full fidelity (step).
func (s *functional) metaStep(core int, blk uint64) {
	if s.l2.Access(blk, false) {
		return
	}
	for _, v := range s.vars {
		if v.warmRec != nil {
			v.warmRec(core, blk)
		} else {
			v.pref.temporal.Record(core, blk, false)
		}
	}
	s.l2.Fill(blk, blockDirty(blk, s.dirtyThresh))
}

// stridePrefetch fills a stride candidate directly (zero-latency memory).
func (s *functional) stridePrefetch(cand uint64) {
	if !s.l2.Probe(cand) {
		s.cnt.StrideIssued++
		s.l2.Fill(cand, false)
	}
}

func (s *functional) fill(core int, blk uint64) {
	s.l2.Fill(blk, blockDirty(blk, s.dirtyThresh))
	s.l1[core].Fill(blk, false)
}
