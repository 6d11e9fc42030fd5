package main

// Every call the benchmark makes into the simulator is in this file, so an
// API change has one place to update. End-to-end runs go through the
// public front door: stms.New → Lab.Plan → Lab.Run with a fresh session
// per repetition. The per-layer replays drive each layer's own package
// directly from a workload's tape, and stream it as a stream.Outlet
// served to a stream.DialInlet consumed by stms.RunFunctionalSourcesCtx.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"stms"
	"stms/internal/cache"
	"stms/internal/core"
	"stms/internal/cpu"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
	"stms/internal/stream"
	"stms/internal/trace"
)

// cores is the modelled CMP's core count (Table 1).
var cores = stms.DefaultConfig().Cores

// labSpec is a matrix of workloads × prefetcher variants run by one
// session.
type labSpec struct {
	rows          []string
	prefs         []stms.PrefSpec
	labels        []string // nil: derived from prefs by the lab
	mode          stms.Mode
	warm, measure uint64 // records per core
}

// cellOut is one executed cell as the benchmark records it.
type cellOut struct {
	row, variant string
	res          *stms.Results
	err          error
	kind         stms.Kind
	start, end   time.Duration // CellStarted/CellFinished on the benchmark clock
}

// labRun is one Lab.Run of a labSpec on a fresh session.
type labRun struct {
	cells        []cellOut // matrix order
	setup        time.Duration
	builds, hits uint64
	matrix       *stms.Matrix
}

// runLab creates a session, plans s and runs it, stamping each cell's
// lifecycle events with the benchmark clock. Cell failures are recorded on the
// cells; only session, plan and cancellation errors are returned.
func runLab(ctx context.Context, s labSpec, scale float64, seed uint64, par int) (*labRun, error) {
	type span struct{ start, end time.Duration }
	cols := len(s.prefs)
	// The progress sink runs on pool goroutines, serialized, and Run waits
	// for them before returning, so reading spans afterwards is ordered.
	spans := make([]span, len(s.rows)*cols)
	opts := []stms.Option{
		stms.WithScale(scale), stms.WithSeed(seed),
		stms.WithWindows(s.warm, s.measure), stms.WithParallelism(par),
		stms.WithProgress(func(ev stms.ResultEvent) {
			i := ev.Cell.Row*cols + ev.Cell.Col
			switch ev.Kind {
			case stms.CellStarted:
				spans[i].start = clock()
			default:
				spans[i].end = clock()
			}
		}),
	}
	lab, err := stms.New(opts...)
	if err != nil {
		return nil, err
	}
	popts := []stms.PlanOption{stms.InMode(s.mode)}
	if s.labels != nil {
		popts = append(popts, stms.WithLabels(s.labels...))
	}
	m, err := lab.Run(ctx, lab.Plan(s.rows, s.prefs, popts...))
	if m == nil || ctx.Err() != nil {
		return nil, err
	}
	ts := lab.TapeStats()
	out := &labRun{setup: ts.Generate, builds: ts.Builds, hits: ts.Hits, matrix: m}
	for i := range m.Cells {
		c := &m.Cells[i]
		out.cells = append(out.cells, cellOut{
			row: c.Cell.Workload, variant: c.Cell.Label, kind: c.Cell.Pref.Kind,
			res: c.Res, err: c.Err,
			start: spans[i].start, end: spans[i].end,
		})
	}
	return out, nil
}

// exportCells returns the lab's JSON export of each cell of m, in matrix
// order, without its host-time field: what a golden file pins.
func exportCells(m *stms.Matrix) ([]map[string]any, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var doc struct {
		Cells []map[string]any `json:"cells"`
	}
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	for _, c := range doc.Cells {
		delete(c, "wall_ms")
	}
	return doc.Cells, nil
}

// resultHash is the canonical hash of a Results: SHA-256 over its JSON
// encoding, which round-trips every field losslessly.
func resultHash(r *stms.Results) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func coverage(r *stms.Results) float64 { return r.Coverage() }

func baselineMisses(r *stms.Results) uint64 { return r.BaselineMisses() }

func dramRequests(r *stms.Results) uint64 { return r.Traffic.TotalAccesses() }

// mshrFills counts the L2 MSHR entries a timed run filled from DRAM:
// demand and stride-prefetch reads.
func mshrFills(r *stms.Results) uint64 {
	return r.Traffic.Accesses[dram.Demand] + r.Traffic.Accesses[dram.StrideData]
}

// metaAccesses counts the off-chip meta-data traffic classes of r.
func metaAccesses(r *stms.Results) uint64 {
	var n uint64
	for _, c := range []dram.Class{dram.IndexLookup, dram.IndexUpdateRd, dram.IndexUpdateWr,
		dram.HistoryAppend, dram.HistoryRead, dram.EndMarkWrite} {
		n += r.Traffic.Accesses[c]
	}
	return n
}

// simConfig is the Table 1 system at the benchmark's scale, seed and
// windows.
func simConfig(scale float64, seed, warm, measure uint64) stms.Config {
	cfg := stms.DefaultConfig()
	cfg.Scale, cfg.Seed = scale, seed
	cfg.WarmRecords, cfg.MeasureRecords = warm, measure
	return cfg
}

// newTape materializes perCore records per core of the named workload at
// the given scale and seed, as a lab session would.
func newTape(name string, scale float64, seed, perCore uint64) (*stms.Tape, error) {
	spec, err := stms.Workload(name)
	if err != nil {
		return nil, err
	}
	return stms.NewTape(spec.Scaled(scale), seed, cores, perCore), nil
}

func tapeBytes(t *stms.Tape) int64 { return t.Bytes() }

// runTape simulates a tape directly, without a lab: the reference a
// streamed run must equal, and the sim layer's replay.
func runTape(ctx context.Context, cfg stms.Config, t *stms.Tape, ps stms.PrefSpec, timed bool) (stms.Results, error) {
	if timed {
		return stms.RunTimedTapeCtx(ctx, cfg, t, ps)
	}
	return stms.RunFunctionalTapeCtx(ctx, cfg, t, ps)
}

// streamRun is one tape streamed over loopback, through the fault proxy,
// into the functional driver.
type streamRun struct {
	res        stms.Results
	connect    time.Duration // dial/hello
	op         time.Duration // the driver run
	wait       time.Duration // driver time blocked in NextFrame
	reconnects uint64
	framesSent uint64 // outlet frame messages, replays included
	framesRecv uint64 // frames the inlet accepted
	records    uint64 // records streamed, all cores
	proxy      *cutListener
}

// runStream serves tape from an outlet behind a cutListener that severs
// the first connections at the given byte offsets, and consumes it with
// the functional driver under cfg and ps.
func runStream(ctx context.Context, tape *stms.Tape, cfg stms.Config, ps stms.PrefSpec, cuts []int64) (*streamRun, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	proxy := newCutListener(lis, cuts...)
	// Serve closes the listener only when cancelled while still serving;
	// one that returns after delivering the end message leaves it open.
	defer proxy.Close()
	out := stream.NewOutlet(stream.TapeSource(tape), stream.Timeouts{})
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- out.Serve(sctx, proxy) }()

	t1 := time.Now()
	in, err := stream.DialInlet(lis.Addr().String(), stream.InletConfig{})
	if err != nil {
		cancel()
		<-served
		return nil, fmt.Errorf("dial inlet: %w", err)
	}
	sr := &streamRun{connect: time.Since(t1), proxy: proxy}
	h := in.Hello()
	sr.records = h.PerCore * uint64(h.Cores)
	srcs := in.Sources()
	waits := make([]*waitSource, len(srcs))
	for i, s := range srcs {
		waits[i] = &waitSource{FrameSource: s}
		srcs[i] = waits[i]
	}
	t2 := time.Now()
	sr.res, err = stms.RunFunctionalSourcesCtx(ctx, cfg,
		stms.SourceRun{Spec: h.Spec, Marks: h.Marks, Sources: srcs, PerCore: h.PerCore}, ps)
	sr.op = time.Since(t2)
	// The driver stops at its record budget and closes the inlet without
	// reading the end-of-stream message. An outlet still waiting for the
	// credit to send that message then sees a dropped connection and
	// waits for a reconnect that never comes, so stop serving here; the
	// result hash checks that every record arrived.
	in.Close()
	cancel()
	serr := <-served
	in.Wait()
	if err != nil {
		return nil, err
	}
	if serr != nil && !errors.Is(serr, context.Canceled) {
		return nil, fmt.Errorf("stream outlet: %w", serr)
	}
	for _, w := range waits {
		sr.wait += w.wait
	}
	sr.reconnects = in.Reconnects()
	sr.framesSent = out.FramesSent()
	sr.framesRecv = in.Frames()
	return sr, nil
}

// waitSource times the consumer's blocking in NextFrame.
type waitSource struct {
	trace.FrameSource
	wait time.Duration
}

func (w *waitSource) NextFrame() *trace.Frame {
	t := time.Now()
	f := w.FrameSource.NextFrame()
	w.wait += time.Since(t)
	return f
}

// replayInput is the slice of a workload's tape the layer replays drive.
type replayInput struct {
	tape    *stms.Tape
	perCore uint64
	cfg     stms.Config
	stms    stms.PrefSpec // the workload's first STMS variant
	blocks  [][]uint64    // per-core block stream, decoded once
	misses  []missRef     // L2 misses of the cache replay, in order
}

// missRef is one L2 demand miss: the core and block.
type missRef struct {
	core int
	blk  uint64
}

func newReplayInput(t *stms.Tape, perCore uint64, cfg stms.Config, ps stms.PrefSpec) *replayInput {
	in := &replayInput{tape: t, perCore: perCore, cfg: cfg, stms: ps}
	f := trace.NewFrame()
	for c := 0; c < cores; c++ {
		blks := make([]uint64, 0, perCore)
		cur := t.CursorN(c, perCore)
		for n := cur.ReadFrame(f); n > 0; n = cur.ReadFrame(f) {
			blks = append(blks, f.Block[:n]...)
		}
		in.blocks = append(in.blocks, blks)
	}
	return in
}

func (in *replayInput) records() uint64 { return in.perCore * uint64(cores) }

// replayDecode reads every frame of the tape through its cursors.
func replayDecode(in *replayInput) time.Duration {
	f := trace.NewFrame()
	t0 := time.Now()
	for c := 0; c < cores; c++ {
		cur := in.tape.CursorN(c, in.perCore)
		for cur.ReadFrame(f) > 0 {
		}
	}
	return time.Since(t0)
}

// replayCPU runs every core's records through cpu.NewFramed with loads
// that complete at L1-hit latency, so the core model and its dispatch
// events are all that is timed.
func replayCPU(in *replayInput) time.Duration {
	lat := in.cfg.L1HitCycles
	load := func(_ int, _ uint32, _ uint64, issueAt uint64, _ uint32) cpu.LoadResult {
		return cpu.LoadResult{Sync: true, CompleteAt: issueAt + lat}
	}
	var d time.Duration
	for c := 0; c < cores; c++ {
		eng := event.NewEngine()
		src := trace.Frames(in.tape.CursorN(c, in.perCore))
		k := cpu.NewFramed(c, in.cfg.Core, eng, src, load)
		t0 := time.Now()
		k.Start()
		eng.Drain(nil)
		d += time.Since(t0)
	}
	return d
}

// replayCache runs the records, cores interleaved as the drivers do,
// through per-core L1s and the shared L2 at the configured geometry. It
// returns the probe and fill operations performed and records the L2
// misses for the replays downstream of the caches.
func replayCache(in *replayInput) (ops uint64, d time.Duration) {
	cfg := in.cfg
	l2 := cache.New(cache.Config{Name: "L2", SizeBytes: cfg.L2(), Assoc: cfg.L2Assoc})
	l1 := make([]*cache.Cache, cores)
	for c := range l1 {
		l1[c] = cache.New(cache.Config{Name: "L1", SizeBytes: cfg.L1(), Assoc: cfg.L1Assoc})
	}
	misses := make([]missRef, 0, in.records()/4)
	t0 := time.Now()
	for i := uint64(0); i < in.perCore; i++ {
		for c := 0; c < cores; c++ {
			blk := in.blocks[c][i]
			ops++
			if l1[c].Access(blk, false) {
				continue
			}
			ops += 2
			if !l2.Access(blk, false) {
				ops++
				l2.Fill(blk, false)
				misses = append(misses, missRef{c, blk})
			}
			l1[c].Fill(blk, false)
		}
	}
	d = time.Since(t0)
	in.misses = misses
	return ops, d
}

// inFlight is the L2 MSHR occupancy a timed run measured: MLP misses
// outstanding on each core while it waits on memory, held in the shared
// file.
func inFlight(r *stms.Results, cores, capacity int) int {
	return min(max(int(math.Round(r.MLP*float64(cores))), 1), capacity)
}

// replayMSHR allocates an L2 MSHR entry for every miss and completes the
// oldest once depth entries are in flight.
func replayMSHR(in *replayInput, depth int) (ops uint64, d time.Duration) {
	m := cache.NewMSHR(in.cfg.L2MSHRs, func(now, a, b uint64) {})
	fifo := make([]uint64, 0, depth)
	t0 := time.Now()
	for i, ms := range in.misses {
		m.AllocateW(ms.blk, uint64(ms.core), uint64(i))
		fifo = append(fifo, ms.blk)
		ops++
		if len(fifo) == depth {
			m.Complete(fifo[0], uint64(i))
			fifo = append(fifo[:0], fifo[1:]...)
			ops++
		}
	}
	for _, blk := range fifo {
		m.Complete(blk, 0)
		ops++
	}
	return ops, time.Since(t0)
}

// nopHandler is a completion nobody waits for.
type nopHandler struct{}

func (nopHandler) Handle(uint64, uint8, uint64, uint64) {}

// dramWrite reports whether a traffic class is a write.
func dramWrite(c dram.Class) bool {
	switch c {
	case dram.Writeback, dram.IndexUpdateWr, dram.HistoryAppend, dram.EndMarkWrite:
		return true
	}
	return false
}

// replayDRAM issues n requests to a DRAM controller, cycling through the
// class mix of r's traffic with demand at high priority, as the timed
// driver issues them. Requests arrive evenly spaced at the rate that
// keeps the channel as busy as r measured (DRAMUtil), so the controller
// works at the timed run's load. It returns the replay's own channel
// utilization with its time.
func replayDRAM(cfg stms.Config, r *stms.Results, n int) (util float64, d time.Duration) {
	seq := classSequence(r.Traffic.Accesses[:], 1024)
	eng := event.NewEngine()
	ctl := dram.New(eng, cfg.DRAM)
	gap := float64(cfg.DRAM.XferCycles) / r.DRAMUtil
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c := dram.Class(seq[i%len(seq)])
		if dramWrite(c) {
			ctl.Write(c, false)
		} else {
			ctl.ReadH(c, c == dram.Demand, nopHandler{}, 0, 0, 0)
		}
		eng.RunUntil(uint64(float64(i+1) * gap))
	}
	eng.Drain(nil)
	d = time.Since(t0)
	return ctl.Utilization(), d
}

// classSequence spreads n slots over the classes in proportion to
// counts, interleaved by smooth weighted round robin.
func classSequence(counts []uint64, n int) []int {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 {
		return []int{int(dram.Demand)}
	}
	credit := make([]float64, len(counts))
	seq := make([]int, n)
	for i := range seq {
		best := 0
		for c, w := range counts {
			credit[c] += float64(w) / total
			if credit[c] > credit[best] {
				best = c
			}
		}
		credit[best]--
		seq[i] = best
	}
	return seq
}

// eventLoop keeps the engine at a steady pending depth: every fired event
// schedules its successor at the next delay of the mix.
type eventLoop struct {
	eng   *event.Engine
	i     int
	delay []uint64
}

func (l *eventLoop) Handle(uint64, uint8, uint64, uint64) {
	l.i++
	l.eng.ScheduleH(l.delay[l.i%len(l.delay)], l, 0, 0, 0)
}

// replayEvents fires n events through ScheduleH/Step with the simulator's
// latency constants as the delay mix and pending events pending. Neither
// the mix nor the depth is measured from a run, so the budget shows this
// replay's cost but does not sum it.
func replayEvents(cfg stms.Config, n, pending int) time.Duration {
	eng := event.NewEngine()
	l := &eventLoop{eng: eng, delay: []uint64{0, cfg.L1HitCycles, cfg.PBHitCycles,
		cfg.L2HitCycles, cfg.DRAM.XferCycles, cfg.DRAM.LatencyCycles, cfg.Core.Quantum}}
	for i := 0; i < pending; i++ {
		eng.ScheduleH(uint64(i), l, 0, 0, 0)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.Step()
	}
	return time.Since(t0)
}

// stmsConfig resolves the STMS sizing a PrefSpec selects, as the
// simulator does.
func stmsConfig(cfg stms.Config, ps stms.PrefSpec) stms.STMSConfig {
	if ps.STMSCfg != nil {
		return *ps.STMSCfg
	}
	s := stms.DefaultSTMSConfig(cfg.Cores).Scaled(cfg.Scale)
	if ps.SampleProb > 0 {
		s.SampleProb = ps.SampleProb
	}
	s.Seed = cfg.Seed
	return s
}

// replayIndex looks every miss up in an IndexTable of the workload's STMS
// sizing and updates it at the sampling rate. It returns the lookups and
// updates performed and the lookups that hit.
func replayIndex(in *replayInput) (ops, hits uint64, d time.Duration) {
	s := stmsConfig(in.cfg, in.stms)
	t := core.NewIndexTable(s.IndexBuckets(), s.BucketWays)
	every := int(math.Max(1, math.Round(1/s.SampleProb)))
	t0 := time.Now()
	for i, ms := range in.misses {
		ops++
		if _, ok := t.Lookup(ms.blk); ok {
			hits++
		}
		if i%every == 0 {
			t.Update(ms.blk, uint64(i))
			ops++
		}
	}
	return ops, hits, time.Since(t0)
}

// zeroEnv is a zero-latency memory system for the prefetcher replay:
// every meta-data access and fetch completes at once, and nothing is on
// chip.
type zeroEnv struct{ now uint64 }

func (e *zeroEnv) Now() uint64 { return e.now }
func (e *zeroEnv) MetaRead(_ dram.Class, done func(uint64)) {
	if done != nil {
		done(e.now)
	}
}
func (e *zeroEnv) MetaReadH(_ dram.Class, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.now, kind, a, b)
}
func (e *zeroEnv) MetaWrite(dram.Class) {}
func (e *zeroEnv) Fetch(_ int, _ uint64, done func(uint64)) {
	if done != nil {
		done(e.now)
	}
}
func (e *zeroEnv) FetchH(_ int, _ uint64, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.now, kind, a, b)
}
func (e *zeroEnv) OnChip(int, uint64) bool { return false }

// replayPrefetch drives a complete STMS prefetcher (core.New: stream
// engine plus off-chip meta-data) with the miss stream over zeroEnv:
// probe, then trigger and record the miss or record the covered hit.
func replayPrefetch(in *replayInput) time.Duration {
	env := &zeroEnv{}
	eng, _ := core.New(env, stmsConfig(in.cfg, in.stms), prefetch.DefaultEngineConfig(in.cfg.Cores))
	t0 := time.Now()
	for i, ms := range in.misses {
		env.now = uint64(i)
		if eng.Probe(ms.core, ms.blk, nil, 0, 0, 0).State != prefetch.ProbeMiss {
			eng.Record(ms.core, ms.blk, true)
			continue
		}
		eng.TriggerMiss(ms.core, ms.blk)
		eng.Record(ms.core, ms.blk, false)
	}
	eng.Flush()
	return time.Since(t0)
}
