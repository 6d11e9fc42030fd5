package sim

import (
	"context"
	"fmt"

	"stms/internal/cache"
	"stms/internal/cpu"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
	"stms/internal/prefetch/stride"
	"stms/internal/trace"
)

// timed is the event-driven whole-system simulation.
//
// The per-record path (load → access → demandFetch → DRAM → MSHR →
// retire) is allocation-free: continuations are typed (kind, a, b)
// payloads delivered through the event.Handler interface — the simulator
// itself is the handler — with the load's identity packed into the
// payload words (block number in a; core, PC, and ROB token in b).
type timed struct {
	cfg  Config
	spec trace.Spec
	ps   PrefSpec

	// Checkpointing: how the trace sources were built (for the resume
	// descriptor), the run's checkpoint options, and trigger state.
	src      ckptSrc
	opt      runOpts
	nextCkpt uint64
	ckptN    int
	halted   bool
	ckptErr  error

	// Cancellation and progress reporting (opt.progress).
	ctx       context.Context
	totalRecs uint64
	allRecs   uint64
	aborted   bool

	eng    *event.Engine
	mc     *dram.Controller
	l1     []*cache.Cache
	l2     *cache.Cache
	l2mshr *cache.MSHR
	strid  *stride.Prefetcher
	pref   built
	cores  []*cpu.Core

	// strideIssue is the premade stride-candidate continuation (one
	// allocation per run instead of one per load).
	strideIssue func(cand uint64)

	dirtyThresh uint64

	// srcs are the per-core frame sources feeding the cores: trace decode
	// (or live generation) is double-buffered behind the simulation.
	srcs []trace.FrameSource

	// Window management.
	recordsSeen []uint64
	crossedWarm int
	measuring   bool
	measureT0   uint64

	// Sampling-window barrier (windowClock runs only): warmPending
	// counts warm-record accesses dispatched before the boundary whose
	// hierarchy walk is still deferred to its issue time; barrierFull is
	// set once every core is parked on the boundary. The window opens
	// when both conditions clear, so every warm access is counted on the
	// warm side of the snapshot and the window measures exactly its
	// planned records.
	warmPending int
	barrierFull bool

	// Per-phase windowing (scenario runs); nil otherwise.
	phases *phaseTracker

	// Raw counters (windowed by snapshot at the warm boundary).
	cnt, cntSnap  counters
	engSnap       EngineCounts
	committedSnap []uint64

	// Per-core MLP integrators (demand off-chip reads).
	mlp []mlpTrack
}

// timed event/completion kinds.
const (
	tkAccess     uint8 = iota // deferred access at issue time (a=blk, b=packed)
	tkRetry                   // MSHR-full retry of demandFetch (a=blk, b=packed)
	tkDemandDone              // demand DRAM read data available (a=blk, b=core)
	tkStrideDone              // stride DRAM read data available (a=blk)
	tkPBArrived               // prefetch-buffer partial hit arrival (a=blk, b=packed)
	tkBarrier                 // sampling barrier: try opening the measurement window
)

// pack squeezes a load's identity into one payload word: PC in the high
// 32 bits, core below, ROB token at the bottom (ROB indices are < 2^16
// for any realistic configuration; Config.Validate bounds cores).
func packLoad(core int, pc uint32, token uint32) uint64 {
	return uint64(pc)<<32 | uint64(core)<<16 | uint64(token)
}

func unpackLoad(b uint64) (core int, pc uint32, token uint32) {
	return int(b >> 16 & 0xFFFF), uint32(b >> 32), uint32(b & 0xFFFF)
}

var _ event.Handler = (*timed)(nil)

// Handle implements event.Handler: every typed continuation of the timed
// hot path lands here.
func (s *timed) Handle(now uint64, kind uint8, a, b uint64) {
	switch kind {
	case tkAccess:
		core, pc, token := unpackLoad(b)
		if t, sync := s.access(core, pc, a, token); sync {
			s.cores[core].Complete(token, t)
		}
		if s.warmPending > 0 {
			if s.warmPending--; s.warmPending == 0 {
				s.maybeOpenWindow()
			}
		}
	case tkBarrier:
		s.maybeOpenWindow()
	case tkRetry:
		core, _, token := unpackLoad(b)
		s.demandFetch(core, a, token)
	case tkDemandDone:
		core := int(b)
		s.mlp[core].complete(now)
		s.fillL2(a)
		s.l2mshr.Complete(a, now)
	case tkStrideDone:
		s.fillL2(a)
		s.l2mshr.Complete(a, now)
	case tkPBArrived:
		// Partially covered miss: the block arrives now; move it on chip
		// and complete the load.
		core, _, token := unpackLoad(b)
		s.fillL2(a)
		s.fillL1(core, a)
		s.cores[core].Complete(token, now)
	}
}

// mshrDone delivers a completed fill to a merged waiter: payload a is the
// block, b the packed load identity.
func (s *timed) mshrDone(now, a, b uint64) {
	core, _, token := unpackLoad(b)
	s.fillL1(core, a)
	s.cores[core].Complete(token, now)
}

type counters struct {
	Loads          uint64
	L1Hits         uint64
	PBFull         uint64
	PBPartial      uint64
	L2Hits         uint64
	L2DemandMisses uint64
	StrideIssued   uint64
	MSHRRetries    uint64
}

func (c counters) sub(o counters) counters {
	return counters{
		Loads:          c.Loads - o.Loads,
		L1Hits:         c.L1Hits - o.L1Hits,
		PBFull:         c.PBFull - o.PBFull,
		PBPartial:      c.PBPartial - o.PBPartial,
		L2Hits:         c.L2Hits - o.L2Hits,
		L2DemandMisses: c.L2DemandMisses - o.L2DemandMisses,
		StrideIssued:   c.StrideIssued - o.StrideIssued,
		MSHRRetries:    c.MSHRRetries - o.MSHRRetries,
	}
}

type mlpTrack struct {
	outstanding uint64
	lastT       uint64
	busy        uint64
	weighted    uint64
}

func (m *mlpTrack) advance(now uint64) {
	if m.outstanding > 0 {
		dt := now - m.lastT
		m.busy += dt
		m.weighted += m.outstanding * dt
	}
	m.lastT = now
}

func (m *mlpTrack) issue(now uint64)    { m.advance(now); m.outstanding++ }
func (m *mlpTrack) complete(now uint64) { m.advance(now); m.outstanding-- }

func (m *mlpTrack) value() float64 {
	if m.busy == 0 {
		return 0
	}
	return float64(m.weighted) / float64(m.busy)
}

// timedEnv adapts the system to prefetch.Env: meta-data and streamed data
// travel as low-priority DRAM traffic.
type timedEnv struct{ s *timed }

func (e timedEnv) Now() uint64 { return e.s.eng.Now() }

func (e timedEnv) MetaRead(class dram.Class, done func(uint64)) {
	e.s.mc.Read(class, false, done)
}

func (e timedEnv) MetaReadH(class dram.Class, h event.Handler, kind uint8, a, b uint64) {
	e.s.mc.ReadH(class, false, h, kind, a, b)
}

func (e timedEnv) MetaWrite(class dram.Class) {
	e.s.mc.Write(class, false)
}

func (e timedEnv) Fetch(core int, blk uint64, done func(uint64)) {
	e.s.mc.Read(dram.StreamData, false, done)
}

func (e timedEnv) FetchH(core int, blk uint64, h event.Handler, kind uint8, a, b uint64) {
	e.s.mc.ReadH(dram.StreamData, false, h, kind, a, b)
}

func (e timedEnv) OnChip(core int, blk uint64) bool {
	return e.s.l1[core].Probe(blk) || e.s.l2.Probe(blk) || e.s.l2mshr.InFlight(blk)
}

// tapeFits verifies a tape covers the run a config describes. Scenario
// tapes must match the run budget exactly: fraction-based phases
// resolve against the materialization budget, so replaying a longer
// scenario tape for a shorter run would shift every phase boundary
// relative to live generation.
func tapeFits(cfg Config, tape *trace.Tape, perCore uint64) error {
	switch {
	case tape == nil:
		return fmt.Errorf("sim: nil tape")
	case tape.Cores() != cfg.Cores:
		return fmt.Errorf("sim: tape holds %d cores, config needs %d", tape.Cores(), cfg.Cores)
	case tape.Seed() != cfg.Seed:
		return fmt.Errorf("sim: tape seed %d, config seed %d", tape.Seed(), cfg.Seed)
	case tape.PerCore() < perCore:
		return fmt.Errorf("sim: tape budget %d records/core, run needs %d", tape.PerCore(), perCore)
	case tape.Scenario() != nil && tape.PerCore() != perCore:
		return fmt.Errorf("sim: scenario tape materialized for %d records/core, run needs exactly %d",
			tape.PerCore(), perCore)
	}
	return nil
}

// runTimed wires and drains the event-driven system over one run's
// per-core frame sources; phase marks, when present, request per-phase
// stat windows in the Results.
func runTimed(ctx context.Context, cfg Config, f feed, ps PrefSpec, o *runOpts) (Results, error) {
	// Each core consumes its trace frame-at-a-time from a pipelined
	// source: a producer goroutine decodes (or generates) the next frame
	// while the simulation works through the current one. Sources are
	// closed on every exit path — an aborted run must not leak producers.
	defer func() {
		for _, src := range f.srcs {
			src.Close()
		}
	}()
	s := &timed{
		cfg:         cfg,
		spec:        f.spec,
		ps:          ps,
		src:         f.src,
		opt:         *o,
		ctx:         ctx,
		totalRecs:   f.total,
		srcs:        f.srcs,
		eng:         event.NewEngine(),
		dirtyThresh: dirtyThreshold(f.spec.DirtyFrac),
		recordsSeen: make([]uint64, cfg.Cores),
		mlp:         make([]mlpTrack, cfg.Cores),
	}
	s.phases = newPhaseTracker(f.marks, cfg.Cores)
	s.mc = dram.New(s.eng, cfg.DRAM)
	s.l2 = cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2(), Assoc: cfg.L2Assoc})
	s.l2mshr = cache.NewMSHR(cfg.L2MSHRs, s.mshrDone)
	s.strid = stride.New(cfg.Stride)
	s.strideIssue = s.stridePrefetch
	s.pref = buildPrefetcher(timedEnv{s}, cfg, ps)

	s.committedSnap = make([]uint64, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		s.l1 = append(s.l1, cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1(), Assoc: cfg.L1Assoc}))
		c := cpu.NewFramed(i, cfg.Core, s.eng, s.srcs[i], s.load)
		s.cores = append(s.cores, c)
	}
	if s.opt.active() {
		// Fail fast: unsupported configurations refuse checkpoint
		// requests up front rather than at the first boundary.
		if err := ckptSupported(s.src, s.pref, ps); err != nil {
			return Results{}, err
		}
	}
	if s.opt.resume != nil {
		// Resumed run: all pending events (including the cores' own
		// dispatch steps) come back with the engine snapshot, so the
		// cores must not be started again.
		d, dec, err := openResume(s.opt.resume)
		if err != nil {
			return Results{}, err
		}
		if err := checkDesc(d, descFor("timed", s.src, cfg, ps, 0)); err != nil {
			return Results{}, err
		}
		if err := s.restore(dec); err != nil {
			return Results{}, err
		}
	} else {
		if s.opt.warm != nil {
			if err := s.applyWarm(s.opt.warm); err != nil {
				return Results{}, err
			}
		}
		for _, c := range s.cores {
			c.Start()
		}
	}
	if s.opt.every > 0 {
		s.nextCkpt = nextBoundary(s.allRecs, s.opt.every)
	}
	// Drain everything: cores stop when their bounded generators run dry;
	// outstanding memory and meta-data events then settle. The stop
	// predicate is polled every pollEvery events (the engine keeps the
	// indirect call off the firing loop) — it also catches cancellation
	// during the drain tail, after the generators have gone dry and
	// noteRecord stops firing. Between events is also the one safe
	// checkpoint site: the engine clock is settled (now == base) and no
	// component is mid-update.
	s.eng.DrainEvery(pollEvery, func() bool {
		if !s.aborted && ctx.Err() != nil {
			s.aborted = true
		}
		if s.aborted {
			return true
		}
		// While the sampling barrier holds cores paused on the warm-up
		// boundary the paused flag is not part of the core snapshot
		// format; defer checkpoints until the window opens (the barrier
		// interval is a handful of records).
		if s.opt.windowClock && !s.measuring && s.crossedWarm > 0 {
			return false
		}
		if s.opt.stopCh != nil {
			select {
			case <-s.opt.stopCh:
				if err := s.writeCkpt(); err != nil {
					s.ckptErr = err
				} else {
					s.ckptN++
					s.halted = true
				}
				return true
			default:
			}
		}
		if s.opt.every > 0 && s.allRecs >= s.nextCkpt {
			if err := s.writeCkpt(); err != nil {
				s.ckptErr = err
				return true
			}
			s.ckptN++
			s.nextCkpt = nextBoundary(s.allRecs, s.opt.every)
			if s.opt.haltAfter > 0 && s.ckptN >= s.opt.haltAfter {
				s.halted = true
				return true
			}
		}
		return false
	})
	switch {
	case s.aborted:
		return Results{}, ctx.Err()
	case s.ckptErr != nil:
		return Results{}, s.ckptErr
	case s.halted:
		return Results{}, ErrCheckpointed
	}
	// A frame source that ran dry because its producer died (truncated
	// file, dropped stream) must fail the run — the records are
	// incomplete, and reporting results over them would silently pass a
	// short trace off as the real one.
	for _, fs := range s.srcs {
		if err := fs.Err(); err != nil {
			return Results{}, fmt.Errorf("sim: trace source failed mid-run: %w", err)
		}
	}
	return s.results(ps), nil
}

// load implements cpu.LoadFunc.
func (s *timed) load(core int, pc uint32, blk uint64, issueAt uint64, token uint32) cpu.LoadResult {
	s.noteRecord(core)
	if issueAt > s.eng.Now() {
		if s.opt.windowClock && !s.measuring {
			s.warmPending++
		}
		s.eng.AtH(issueAt, s, tkAccess, blk, packLoad(core, pc, token))
		return cpu.LoadResult{}
	}
	if t, sync := s.access(core, pc, blk, token); sync {
		return cpu.LoadResult{Sync: true, CompleteAt: t}
	}
	return cpu.LoadResult{}
}

// access walks the memory hierarchy at the current simulation time.
func (s *timed) access(core int, pc uint32, blk uint64, token uint32) (completeAt uint64, sync bool) {
	now := s.eng.Now()
	s.cnt.Loads++
	if s.l1[core].Access(blk, false) {
		s.cnt.L1Hits++
		return now + s.cfg.L1HitCycles, true
	}
	// The stride prefetcher trains on the L1-miss stream (Table 1). It
	// observes before the prefetch-buffer probe so its training — part of
	// the base system — is identical across prefetcher variants, keeping
	// matched-pair runs exactly comparable.
	s.strid.Observe(pc, blk, s.strideIssue)
	// L2 lookup first: a block that is L2-resident was never a miss to
	// cover, even if a copy also sits in the prefetch buffer (the probes
	// happen in parallel in hardware; the L2 hit wins).
	if s.l2.Access(blk, false) {
		s.cnt.L2Hits++
		s.fillL1(core, blk)
		return now + s.cfg.L2HitCycles, true
	}
	// Prefetch buffer sits alongside the L1 (§4.2). A partial hit parks
	// the load's identity as a typed waiter; tkPBArrived finishes it.
	res := s.pref.temporal.Probe(core, blk, s, tkPBArrived, blk, packLoad(core, pc, token))
	switch res.State {
	case prefetch.ProbeReady:
		s.cnt.PBFull++
		s.pref.temporal.Record(core, blk, true)
		s.fillL2(blk)
		s.fillL1(core, blk)
		return now + s.cfg.PBHitCycles, true
	case prefetch.ProbeInFlight:
		s.cnt.PBPartial++
		s.pref.temporal.Record(core, blk, true)
		return 0, false
	}
	// Off-chip demand read miss: this is the temporal prefetcher's
	// trigger event (§4.2). The lookup races the fill; the record
	// mirrors retirement.
	s.cnt.L2DemandMisses++
	s.pref.temporal.TriggerMiss(core, blk)
	s.pref.temporal.Record(core, blk, false)
	s.demandFetch(core, blk, token)
	return 0, false
}

func (s *timed) fillL1(core int, blk uint64) {
	// L1 victims write back on chip (to the L2); no off-chip traffic.
	s.l1[core].Fill(blk, false)
}

func (s *timed) fillL2(blk uint64) {
	// Only the victim's dirty bit matters for traffic: a dirty eviction
	// writes the block back off chip.
	_, wb, evicted := s.l2.Fill(blk, blockDirty(blk, s.dirtyThresh))
	if evicted && wb {
		s.mc.Write(dram.Writeback, false)
	}
}

// demandFetch issues (or merges) an off-chip demand read.
func (s *timed) demandFetch(core int, blk uint64, token uint32) {
	primary, ok := s.l2mshr.AllocateW(blk, blk, packLoad(core, 0, token))
	if !ok {
		// MSHR file full: retry shortly (Table 1 bounds in-flight misses).
		s.cnt.MSHRRetries++
		s.eng.ScheduleH(16, s, tkRetry, blk, packLoad(core, 0, token))
		return
	}
	if !primary {
		return // merged into an in-flight fill
	}
	s.mlp[core].issue(s.eng.Now())
	s.mc.ReadH(dram.Demand, true, s, tkDemandDone, blk, uint64(core))
}

// stridePrefetch issues a stride candidate into the L2 at low priority.
func (s *timed) stridePrefetch(blk uint64) {
	if s.l2.Probe(blk) || s.l2mshr.InFlight(blk) {
		return
	}
	// Leave headroom for demand misses in the MSHR file.
	if s.l2mshr.Outstanding() >= s.cfg.L2MSHRs-8 {
		return
	}
	primary, ok := s.l2mshr.Allocate(blk)
	if !ok || !primary {
		return
	}
	s.cnt.StrideIssued++
	s.mc.ReadH(dram.StrideData, false, s, tkStrideDone, blk, 0)
}

// noteRecord advances the warm-up/measurement window bookkeeping and, on
// a stride, reports progress and polls the context.
func (s *timed) noteRecord(core int) {
	if s.allRecs++; s.allRecs%pollEvery == 0 {
		if s.opt.progress != nil {
			s.opt.progress(s.allRecs, s.totalRecs)
		}
		if s.ctx.Err() != nil {
			s.aborted = true
		}
	}
	s.recordsSeen[core]++
	if s.phases != nil {
		s.phases.note(core, s.recordsSeen[core], s.phaseSnapNow)
	}
	if s.recordsSeen[core] == s.cfg.WarmRecords && !s.measuring {
		s.crossedWarm++
		switch {
		case !s.opt.windowClock:
			if s.crossedWarm == s.cfg.Cores {
				s.startMeasure()
			}
		default:
			// Sampling window: park the core on the warm-up boundary.
			// Without the barrier, cores that run ahead consume (fast)
			// measurement records before the window opens; the serial run
			// pays that clip once, K windows would pay it K times, which
			// skews every window slow. The last core to arrive parks too:
			// its boundary record (and any other deferred warm access)
			// must finish its hierarchy walk before the window opens.
			s.cores[core].Pause()
			if s.crossedWarm == s.cfg.Cores {
				s.barrierFull = true
				s.eng.ScheduleH(0, s, tkBarrier, 0, 0)
			}
		}
	}
}

// maybeOpenWindow opens a sampling window once every core is parked on
// the warm-up boundary and no warm-record access walk is still pending.
func (s *timed) maybeOpenWindow() {
	if !s.barrierFull || s.measuring || s.warmPending > 0 {
		return
	}
	s.startMeasure()
	for _, c := range s.cores {
		c.Resume()
	}
}

func (s *timed) startMeasure() {
	now := s.eng.Now()
	s.measuring = true
	s.measureT0 = now
	s.cntSnap = s.cnt
	s.engSnap = engineCounts(s.pref.temporal.Stats())
	s.mc.ResetStats()
	s.l2.ResetStats()
	for i, c := range s.cores {
		c.MarkWindow()
		s.committedSnap[i] = 0 // MarkWindow owns the boundary
		s.mlp[i] = mlpTrack{outstanding: s.mlp[i].outstanding, lastT: now}
	}
}

func (s *timed) results(ps PrefSpec) Results {
	if eng := s.pref.engine; eng != nil {
		eng.Flush()
	}
	// End-of-run clock: the engine stops at the last fired event, but the
	// final DRAM transfer holds its channel a few cycles past that (its
	// completion is bookkeeping, not an event). The run ends when the
	// channel does.
	now := s.eng.Now()
	if s.opt.windowClock && s.measuring {
		// Sampling window: the clock stops at the last instruction
		// commit. The queue drain past that point (outstanding demand
		// misses, low-priority meta-data backlog) is an end-of-run
		// artifact the serial run pays once but K windows would pay K
		// times.
		fin := s.measureT0
		for _, c := range s.cores {
			if f := c.FinishTime(); f > fin {
				fin = f
			}
		}
		now = fin
	} else if bu := s.mc.BusyUntil(); bu > now {
		now = bu
	}
	w := s.cnt.sub(s.cntSnap)
	var instrs uint64
	for _, c := range s.cores {
		instrs += c.CommittedInWindow()
	}
	elapsed := now - s.measureT0
	if !s.measuring {
		// Window never opened (warm-up exceeded the trace): report
		// whole-run numbers so short tests still see data.
		elapsed = now
	}
	var mlpW, mlpB float64
	for i := range s.mlp {
		if now > s.mlp[i].lastT {
			s.mlp[i].advance(now)
		}
		mlpW += float64(s.mlp[i].weighted)
		mlpB += float64(s.mlp[i].busy)
	}
	r := Results{
		Workload:       s.spec.Name,
		Variant:        ps.Kind.String(),
		ElapsedCycles:  elapsed,
		Instrs:         instrs,
		Records:        w.Loads,
		L1Hits:         w.L1Hits,
		L2Hits:         w.L2Hits,
		CoveredFull:    w.PBFull,
		CoveredPartial: w.PBPartial,
		Uncovered:      w.L2DemandMisses,
		Traffic:        s.mc.Traffic(),
		Engine:         engineCounts(s.pref.temporal.Stats()).Sub(s.engSnap),
		DRAMUtil:       s.mc.Utilization(),
	}
	if elapsed > 0 {
		r.IPC = float64(instrs) / float64(elapsed)
	}
	if mlpB > 0 {
		r.MLP = mlpW / mlpB
	}
	for _, src := range s.srcs {
		r.Frames.Add(src.Stats())
	}
	if eng := s.pref.engine; eng != nil {
		r.StreamLens = eng.Stats().StreamLens.Clone()
	}
	if s.phases != nil {
		// The final window closes at the end-of-run clock, not the last
		// event (same clamp as above); mid-run snapshots in phaseSnapNow
		// use event time, where the channel's tail never outruns events.
		final := s.phaseSnapNow()
		final.cycles = now
		r.Phases = s.phases.windows(final)
	}
	return r
}

// phaseSnapNow captures the whole-run counter state at the current
// simulation instant.
func (s *timed) phaseSnapNow() phaseSnap {
	var instrs uint64
	for _, c := range s.cores {
		instrs += c.Committed()
	}
	return phaseSnap{cnt: s.cnt, cycles: s.eng.Now(), instrs: instrs}
}
