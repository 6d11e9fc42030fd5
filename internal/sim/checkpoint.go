package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"stms/internal/ckpt"
	"stms/internal/core"
	"stms/internal/event"
	"stms/internal/trace"
)

// Crash-resumable simulation. A checkpoint is a ckpt.Seal'd container
// holding a JSON run descriptor (enough to rebuild the system and its
// trace sources from scratch) followed by binary Snapshot sections for
// every stateful component. Snapshots are pure observation: a run that
// writes checkpoints produces bit-identical Results to one that does
// not, and a run resumed from any checkpoint produces bit-identical
// Results to the uninterrupted run.
//
// Checkpointable configurations are the None/Ideal/STMS variants (the
// default bucket-LRU index organization) over library-generated specs,
// scenarios, or tapes. The comparator variants (TSE/EBCP/ULMT/Markov),
// the §5.4 index-organization ablations, and externally supplied
// generators keep closure-based in-flight state that cannot be
// serialized; requesting checkpoints there fails fast with an error.

// ErrCheckpointed is returned by a run that was asked to halt after
// writing a checkpoint (WithCheckpointHalt, WithCheckpointSignal). The
// checkpoint on disk resumes the run exactly where it stopped.
var ErrCheckpointed = errors.New("sim: run halted after writing a checkpoint")

// RunOption configures checkpointing on a Run*Ctx entry point.
type RunOption func(*runOpts)

type runOpts struct {
	every       uint64
	path        string
	sink        func(data []byte) error
	haltAfter   int
	stopCh      <-chan struct{}
	resume      []byte
	warm        *ckpt.Snapshot
	windowClock bool
}

func (o *runOpts) active() bool {
	return o.every > 0 || o.stopCh != nil
}

// WithCheckpointEvery writes a checkpoint to path (atomically: temp +
// fsync + rename) every `records` trace records, measured across all
// cores. records == 0 sets only the destination path, for runs that
// checkpoint on signal alone.
func WithCheckpointEvery(records uint64, path string) RunOption {
	return func(o *runOpts) { o.every, o.path = records, path }
}

// WithCheckpointFunc delivers each checkpoint (the sealed container
// bytes, identical to the file contents) to fn instead of — or in
// addition to — a file. A non-nil error from fn aborts the run.
func WithCheckpointFunc(records uint64, fn func(data []byte) error) RunOption {
	return func(o *runOpts) {
		if records > 0 {
			o.every = records
		}
		o.sink = fn
	}
}

// WithCheckpointHalt stops the run with ErrCheckpointed after the n-th
// checkpoint it writes. This is the deterministic stand-in for a crash:
// the run dies at an exact checkpoint boundary, so a resumed run can be
// compared bit-for-bit against an uninterrupted one.
func WithCheckpointHalt(n int) RunOption {
	return func(o *runOpts) { o.haltAfter = n }
}

// WithCheckpointSignal requests a final checkpoint, then halt with
// ErrCheckpointed, as soon as ch is closed (or sent to). Used for
// graceful worker shutdown: the in-progress job flushes a resumable
// checkpoint before the process exits.
func WithCheckpointSignal(ch <-chan struct{}) RunOption {
	return func(o *runOpts) { o.stopCh = ch }
}

// WithResume restores the run from a sealed checkpoint (the bytes of a
// checkpoint file) before the first event fires. The configuration,
// prefetcher spec and trace identity passed to the entry point must
// match the ones recorded in the checkpoint.
func WithResume(data []byte) RunOption {
	return func(o *runOpts) { o.resume = data }
}

// withWarmState injects functionally warmed state (a "sim.warm"
// snapshot of caches, stride tables and temporal prefetcher) into a
// freshly constructed timed system before its cores start. Internal to
// the sampling scheduler; ignored on resumed runs, whose checkpoint
// restores the full state.
func withWarmState(snap *ckpt.Snapshot) RunOption {
	return func(o *runOpts) { o.warm = snap }
}

// withWindowClock ends the measured interval at the last instruction
// commit (max core FinishTime) instead of the memory-channel drain. A
// full run pays the end-of-run drain tail once, so it belongs in the
// exact numbers; a K-window sampled run would pay it K times, which
// inflates cycles-per-instruction in every window. Internal to the
// sampling scheduler.
func withWindowClock() RunOption {
	return func(o *runOpts) { o.windowClock = true }
}

func gatherOpts(opts []RunOption) runOpts {
	var o runOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// ckptSrc records how a run's trace sources were built, so a resumed
// run can rebuild the identical sources.
type ckptSrc struct {
	kind string // "spec" | "scenario" | "tape" | "external"
	spec trace.Spec
	scn  trace.Scenario
}

// CheckpointDesc is the JSON run descriptor at the head of every
// checkpoint: everything needed to reconstruct the run it belongs to.
// Spec and Scenario are the original (unscaled) inputs; tape-backed
// checkpoints echo the tape's spec for identity validation and need
// the tape itself handed to ResumeTape.
type CheckpointDesc struct {
	Mode     string          `json:"mode"`   // "timed" | "functional"
	Source   string          `json:"source"` // "spec" | "scenario" | "tape"
	Cfg      Config          `json:"cfg"`
	PS       PrefSpec        `json:"ps"`
	Spec     *trace.Spec     `json:"spec,omitempty"`
	Scenario *trace.Scenario `json:"scenario,omitempty"`
	Records  uint64          `json:"records"` // records processed at capture
}

// PeekCheckpoint opens a sealed checkpoint and returns its descriptor
// without restoring anything.
func PeekCheckpoint(data []byte) (CheckpointDesc, error) {
	payload, err := ckpt.Open(data)
	if err != nil {
		return CheckpointDesc{}, err
	}
	d, _, err := readDesc(payload)
	return d, err
}

func readDesc(payload []byte) (CheckpointDesc, *ckpt.Decoder, error) {
	dec := ckpt.NewDecoder(payload)
	dec.Section("sim.checkpoint")
	j := dec.Bytes()
	if err := dec.Err(); err != nil {
		return CheckpointDesc{}, nil, err
	}
	var d CheckpointDesc
	if err := json.Unmarshal(j, &d); err != nil {
		return CheckpointDesc{}, nil, fmt.Errorf("sim: corrupt checkpoint descriptor: %w", err)
	}
	return d, dec, nil
}

// writeCheckpoint assembles descriptor + component snapshots and
// delivers the sealed container to the configured destinations.
func writeCheckpoint(o *runOpts, d CheckpointDesc, snap func(*ckpt.Encoder) error) error {
	if o.path == "" && o.sink == nil {
		return fmt.Errorf("sim: checkpoint requested with no destination (path or func)")
	}
	j, err := json.Marshal(d)
	if err != nil {
		return fmt.Errorf("sim: encoding checkpoint descriptor: %w", err)
	}
	enc := ckpt.NewEncoder()
	enc.Section("sim.checkpoint")
	enc.Bytes(j)
	if err := snap(enc); err != nil {
		return err
	}
	if o.path != "" {
		if err := ckpt.WriteFile(o.path, enc.Payload()); err != nil {
			return err
		}
	}
	if o.sink != nil {
		if err := o.sink(ckpt.Seal(enc.Payload())); err != nil {
			return err
		}
	}
	return nil
}

// openResume validates and unpacks a WithResume container.
func openResume(data []byte) (CheckpointDesc, *ckpt.Decoder, error) {
	payload, err := ckpt.Open(data)
	if err != nil {
		return CheckpointDesc{}, nil, err
	}
	return readDesc(payload)
}

// ResumeFrom reads a checkpoint file and continues the run it
// describes to completion. Tape-backed checkpoints need ResumeTape.
func ResumeFrom(path string, opts ...RunOption) (Results, error) {
	return ResumeFromCtx(nil, path, nil, opts...)
}

// ResumeFromCtx is ResumeFrom with cancellation and progress.
func ResumeFromCtx(ctx context.Context, path string, progress Progress, opts ...RunOption) (Results, error) {
	data, err := ckpt.ReadFile(path)
	if err != nil {
		return Results{}, err
	}
	return ResumeFromBytes(ctx, ckpt.Seal(data), progress, opts...)
}

// ResumeFromBytes continues a run from sealed checkpoint bytes. The
// run is rebuilt entirely from the embedded descriptor; extra options
// (e.g. a new checkpoint cadence) apply to the continued run.
func ResumeFromBytes(ctx context.Context, data []byte, progress Progress, opts ...RunOption) (Results, error) {
	d, _, err := openResume(data)
	if err != nil {
		return Results{}, err
	}
	opts = append(opts, WithResume(data))
	switch {
	case d.Source == "tape":
		return Results{}, fmt.Errorf("sim: checkpoint is tape-backed; resume it with ResumeTape and the tape")
	case d.Mode == "timed" && d.Source == "spec" && d.Spec != nil:
		return RunTimedCtx(ctx, d.Cfg, *d.Spec, d.PS, progress, opts...)
	case d.Mode == "timed" && d.Source == "scenario" && d.Scenario != nil:
		return RunTimedScenarioCtx(ctx, d.Cfg, *d.Scenario, d.PS, progress, opts...)
	case d.Mode == "functional" && d.Source == "spec" && d.Spec != nil:
		return RunFunctionalCtx(ctx, d.Cfg, *d.Spec, d.PS, progress, opts...)
	case d.Mode == "functional" && d.Source == "scenario" && d.Scenario != nil:
		return RunFunctionalScenarioCtx(ctx, d.Cfg, *d.Scenario, d.PS, progress, opts...)
	}
	return Results{}, fmt.Errorf("sim: checkpoint descriptor names unknown run shape (mode %q, source %q)", d.Mode, d.Source)
}

// ResumeTape continues a tape-backed run from sealed checkpoint bytes;
// the caller supplies the tape (re-fetched by key in the distributed
// lab, rebuilt locally otherwise).
func ResumeTape(ctx context.Context, data []byte, tape *trace.Tape, progress Progress, opts ...RunOption) (Results, error) {
	d, _, err := openResume(data)
	if err != nil {
		return Results{}, err
	}
	if d.Source != "tape" {
		return Results{}, fmt.Errorf("sim: checkpoint is %s-backed, not tape-backed", d.Source)
	}
	opts = append(opts, WithResume(data))
	switch d.Mode {
	case "timed":
		return RunTimedTapeCtx(ctx, d.Cfg, tape, d.PS, progress, opts...)
	case "functional":
		return RunFunctionalTapeCtx(ctx, d.Cfg, tape, d.PS, progress, opts...)
	}
	return Results{}, fmt.Errorf("sim: checkpoint descriptor names unknown mode %q", d.Mode)
}

// CheckpointablePref reports whether runs of the given prefetcher
// variant can checkpoint: the None/Ideal/STMS kinds over the default
// bucket-LRU index organization. The distributed lab consults this
// before requesting checkpoint options for a job, so non-serializable
// variants run plain instead of failing fast. Sources must still be
// re-derivable (externally supplied generators are rejected at run
// time regardless of variant).
func CheckpointablePref(ps PrefSpec) bool {
	switch ps.Kind {
	case None, Ideal, STMS:
	default:
		return false
	}
	if ps.STMSCfg != nil && ps.STMSCfg.Org != core.OrgBucketLRU {
		return false
	}
	return true
}

// ckptSupported gates checkpoint requests on configurations whose full
// state is serializable.
func ckptSupported(src ckptSrc, pref built, ps PrefSpec) error {
	switch ps.Kind {
	case None, Ideal, STMS:
	default:
		return fmt.Errorf("sim: the %s variant is not checkpointable", ps.Kind)
	}
	if pref.stms != nil {
		if err := pref.stms.Checkpointable(); err != nil {
			return err
		}
	}
	if src.kind == "external" {
		return fmt.Errorf("sim: runs over externally supplied generators are not checkpointable (sources cannot be re-derived)")
	}
	return nil
}

func descFor(mode string, src ckptSrc, cfg Config, ps PrefSpec, tapeSpec trace.Spec, records uint64) CheckpointDesc {
	d := CheckpointDesc{Mode: mode, Source: src.kind, Cfg: cfg, PS: ps, Records: records}
	switch src.kind {
	case "spec":
		sp := src.spec
		d.Spec = &sp
	case "scenario":
		sc := src.scn
		d.Scenario = &sc
	case "tape":
		sp := tapeSpec
		d.Spec = &sp
	}
	return d
}

// checkDesc validates a resume descriptor against the run being
// restored into.
func checkDesc(d CheckpointDesc, mode string, src ckptSrc, cfg Config, ps PrefSpec) error {
	if d.Mode != mode {
		return fmt.Errorf("sim: checkpoint is a %s-mode run, resuming %s", d.Mode, mode)
	}
	if d.Source != src.kind {
		return fmt.Errorf("sim: checkpoint source %q does not match run source %q", d.Source, src.kind)
	}
	if d.Cfg != cfg {
		return fmt.Errorf("sim: checkpoint configuration does not match the run's")
	}
	if d.PS.Kind != ps.Kind {
		return fmt.Errorf("sim: checkpoint is a %s run, resuming %s", d.PS.Kind, ps.Kind)
	}
	return nil
}

// --- shared binary helpers -------------------------------------------------

func putCounters(enc *ckpt.Encoder, c *counters) {
	enc.U64(c.Loads)
	enc.U64(c.L1Hits)
	enc.U64(c.PBFull)
	enc.U64(c.PBPartial)
	enc.U64(c.L2Hits)
	enc.U64(c.L2DemandMisses)
	enc.U64(c.StrideIssued)
	enc.U64(c.MSHRRetries)
}

func getCounters(dec *ckpt.Decoder, c *counters) {
	c.Loads = dec.U64()
	c.L1Hits = dec.U64()
	c.PBFull = dec.U64()
	c.PBPartial = dec.U64()
	c.L2Hits = dec.U64()
	c.L2DemandMisses = dec.U64()
	c.StrideIssued = dec.U64()
	c.MSHRRetries = dec.U64()
}

func putEngineCounts(enc *ckpt.Encoder, c *EngineCounts) {
	enc.U64(c.Lookups)
	enc.U64(c.LookupHits)
	enc.U64(c.Adopted)
	enc.U64(c.Abandoned)
	enc.U64(c.Resumed)
	enc.U64(c.DepthStops)
	enc.U64(c.Exhausted)
	enc.U64(c.Issued)
	enc.U64(c.Filtered)
	enc.U64(c.FullHits)
	enc.U64(c.PartialHits)
	enc.U64(c.Evicted)
}

func getEngineCounts(dec *ckpt.Decoder, c *EngineCounts) {
	c.Lookups = dec.U64()
	c.LookupHits = dec.U64()
	c.Adopted = dec.U64()
	c.Abandoned = dec.U64()
	c.Resumed = dec.U64()
	c.DepthStops = dec.U64()
	c.Exhausted = dec.U64()
	c.Issued = dec.U64()
	c.Filtered = dec.U64()
	c.FullHits = dec.U64()
	c.PartialHits = dec.U64()
	c.Evicted = dec.U64()
}

func snapshotPhases(enc *ckpt.Encoder, p *phaseTracker) {
	enc.Section("sim.phases")
	enc.Bool(p != nil)
	if p == nil {
		return
	}
	enc.Int(len(p.nextMark))
	for _, v := range p.nextMark {
		enc.Int(v)
	}
	enc.Int(len(p.crossed))
	for _, v := range p.crossed {
		enc.Int(v)
	}
	enc.Int(len(p.snaps))
	for i := range p.snaps {
		putCounters(enc, &p.snaps[i].cnt)
		enc.U64(p.snaps[i].cycles)
		enc.U64(p.snaps[i].instrs)
	}
}

func restorePhases(dec *ckpt.Decoder, p *phaseTracker) error {
	dec.Section("sim.phases")
	had := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if had != (p != nil) {
		return fmt.Errorf("sim: checkpoint phase structure does not match the run's")
	}
	if p == nil {
		return nil
	}
	nm := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nm != len(p.nextMark) {
		return fmt.Errorf("sim: checkpoint has %d phase cores, want %d", nm, len(p.nextMark))
	}
	for i := range p.nextMark {
		p.nextMark[i] = dec.Int()
	}
	nc := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nc != len(p.crossed) {
		return fmt.Errorf("sim: checkpoint has %d phase boundaries, want %d", nc, len(p.crossed))
	}
	for i := range p.crossed {
		p.crossed[i] = dec.Int()
	}
	ns := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	p.snaps = make([]phaseSnap, ns)
	for i := range p.snaps {
		getCounters(dec, &p.snaps[i].cnt)
		p.snaps[i].cycles = dec.U64()
		p.snaps[i].instrs = dec.U64()
	}
	return dec.Err()
}

func snapshotPref(enc *ckpt.Encoder, b *built, idOf func(event.Handler) (uint32, bool)) error {
	enc.Section("sim.pref")
	if b.engine != nil {
		if err := b.engine.Snapshot(enc, idOf); err != nil {
			return err
		}
	}
	if b.stms != nil {
		if err := b.stms.Snapshot(enc); err != nil {
			return err
		}
	}
	if b.ideal != nil {
		if err := b.ideal.Snapshot(enc); err != nil {
			return err
		}
	}
	return nil
}

func restorePref(dec *ckpt.Decoder, b *built, handlerOf func(uint32) (event.Handler, bool)) error {
	dec.Section("sim.pref")
	if b.engine != nil {
		if err := b.engine.Restore(dec, handlerOf); err != nil {
			return err
		}
	}
	if b.stms != nil {
		if err := b.stms.Restore(dec, b.engine.LookupDoneFor, b.engine.ReadDoneFor); err != nil {
			return err
		}
	}
	if b.ideal != nil {
		if err := b.ideal.Restore(dec); err != nil {
			return err
		}
	}
	return nil
}

// --- handler registry ------------------------------------------------------

// handlers returns the timed system's event.Handler registry in fixed
// construction order; snapshot and restore both derive ids from it, so
// the mapping is stable across processes by construction.
func (s *timed) handlers() []event.Handler {
	hs := []event.Handler{s, s.mc}
	if s.pref.engine != nil {
		hs = append(hs, s.pref.engine)
	}
	if s.pref.stms != nil {
		hs = append(hs, s.pref.stms)
	}
	for _, c := range s.cores {
		hs = append(hs, c)
	}
	return hs
}

func idOfFunc(hs []event.Handler) func(event.Handler) (uint32, bool) {
	return func(h event.Handler) (uint32, bool) {
		for i, x := range hs {
			if x == h {
				return uint32(i), true
			}
		}
		return 0, false
	}
}

func handlerOfFunc(hs []event.Handler) func(uint32) (event.Handler, bool) {
	return func(id uint32) (event.Handler, bool) {
		if int(id) >= len(hs) {
			return nil, false
		}
		return hs[id], true
	}
}

// --- timed driver ----------------------------------------------------------

// snapshot serializes the entire timed system between events.
func (s *timed) snapshot(enc *ckpt.Encoder) error {
	idOf := idOfFunc(s.handlers())
	enc.Section("sim.timed")
	enc.U64(s.totalRecs)
	enc.U64(s.allRecs)
	enc.U64s(s.recordsSeen)
	enc.Int(s.crossedWarm)
	enc.Bool(s.measuring)
	enc.U64(s.measureT0)
	putCounters(enc, &s.cnt)
	putCounters(enc, &s.cntSnap)
	putEngineCounts(enc, &s.engSnap)
	enc.U64s(s.committedSnap)
	for i := range s.mlp {
		m := &s.mlp[i]
		enc.U64(m.outstanding)
		enc.U64(m.lastT)
		enc.U64(m.busy)
		enc.U64(m.weighted)
	}
	snapshotPhases(enc, s.phases)
	if err := s.eng.Snapshot(enc, idOf); err != nil {
		return err
	}
	if err := s.mc.Snapshot(enc, idOf); err != nil {
		return err
	}
	s.l2.Snapshot(enc)
	s.l2mshr.Snapshot(enc)
	for _, c := range s.l1 {
		c.Snapshot(enc)
	}
	s.strid.Snapshot(enc)
	if err := snapshotPref(enc, &s.pref, idOf); err != nil {
		return err
	}
	for _, c := range s.cores {
		c.Snapshot(enc)
	}
	return nil
}

// restore rebuilds the freshly constructed timed system (cores not yet
// started) from a checkpoint decoder positioned after the descriptor.
func (s *timed) restore(dec *ckpt.Decoder) error {
	handlerOf := handlerOfFunc(s.handlers())
	dec.Section("sim.timed")
	totalRecs := dec.U64()
	s.allRecs = dec.U64()
	seen := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if totalRecs != s.totalRecs {
		return fmt.Errorf("sim: checkpoint run length %d does not match %d", totalRecs, s.totalRecs)
	}
	if len(seen) != len(s.recordsSeen) {
		return fmt.Errorf("sim: checkpoint has %d cores, want %d", len(seen), len(s.recordsSeen))
	}
	s.recordsSeen = seen
	s.crossedWarm = dec.Int()
	s.measuring = dec.Bool()
	s.measureT0 = dec.U64()
	getCounters(dec, &s.cnt)
	getCounters(dec, &s.cntSnap)
	getEngineCounts(dec, &s.engSnap)
	snap := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(snap) != len(s.committedSnap) {
		return fmt.Errorf("sim: corrupt checkpoint (committed snapshot)")
	}
	s.committedSnap = snap
	for i := range s.mlp {
		m := &s.mlp[i]
		m.outstanding = dec.U64()
		m.lastT = dec.U64()
		m.busy = dec.U64()
		m.weighted = dec.U64()
	}
	if err := restorePhases(dec, s.phases); err != nil {
		return err
	}
	if err := s.eng.Restore(dec, handlerOf); err != nil {
		return err
	}
	if err := s.mc.Restore(dec, handlerOf); err != nil {
		return err
	}
	if err := s.l2.Restore(dec); err != nil {
		return err
	}
	if err := s.l2mshr.Restore(dec); err != nil {
		return err
	}
	for _, c := range s.l1 {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	if err := s.strid.Restore(dec); err != nil {
		return err
	}
	if err := restorePref(dec, &s.pref, handlerOf); err != nil {
		return err
	}
	for _, c := range s.cores {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// writeCkpt emits one checkpoint of the running timed system.
func (s *timed) writeCkpt() error {
	d := descFor("timed", s.src, s.cfg, s.ps, s.spec, s.allRecs)
	return writeCheckpoint(&s.opt, d, s.snapshot)
}

// --- functional driver -----------------------------------------------------

// funcLoopState bundles the run loop's local cursor state so the
// snapshot/restore pair can see it alongside the functional struct.
type funcLoopState struct {
	i          uint64 // loop index = records processed
	seen       []uint64
	framesRead []uint64
	pos        []int
	frames     []*trace.Frame
	srcs       []trace.FrameSource
}

// snapshotFunc serializes the functional system at a record boundary.
// The functional driver is fully synchronous (no events, no pending
// operations), so the prefetch buffer can never hold waiters — the
// handler registry is empty. Only groups of one are checkpointed; the
// base and variant counters are written as the one counters record of a
// solo run.
func (s *functional) snapshotFunc(enc *ckpt.Encoder, ls *funcLoopState) error {
	noIDs := func(event.Handler) (uint32, bool) { return 0, false }
	v := s.vars[0]
	cnt, cntSnap := merge(s.cnt, v.cnt), merge(s.cntSnap, v.cntSnap)
	enc.Section("sim.functional")
	enc.U64(ls.i)
	putCounters(enc, &cnt)
	putCounters(enc, &cntSnap)
	putEngineCounts(enc, &v.engSnap)
	enc.U64s(ls.seen)
	enc.U64s(ls.framesRead)
	for core := range ls.pos {
		enc.Int(ls.pos[core])
		enc.Bool(ls.frames[core] != nil)
	}
	snapshotPhases(enc, v.phases)
	s.l2.Snapshot(enc)
	for _, c := range s.l1 {
		c.Snapshot(enc)
	}
	s.strid.Snapshot(enc)
	return snapshotPref(enc, &v.pref, noIDs)
}

// restoreFunc rebuilds the functional system and the loop cursors from
// a checkpoint decoder positioned after the descriptor, fast-forwarding
// each core's frame source to the checkpointed frame.
func (s *functional) restoreFunc(dec *ckpt.Decoder, ls *funcLoopState) error {
	noHandlers := func(uint32) (event.Handler, bool) { return nil, false }
	v := s.vars[0]
	dec.Section("sim.functional")
	ls.i = dec.U64()
	getCounters(dec, &s.cnt)
	getCounters(dec, &s.cntSnap)
	v.cnt, v.cntSnap = s.cnt, s.cntSnap
	getEngineCounts(dec, &v.engSnap)
	seen := dec.U64s()
	framesRead := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(seen) != len(ls.seen) || len(framesRead) != len(ls.framesRead) {
		return fmt.Errorf("sim: checkpoint core count does not match the run's")
	}
	copy(ls.seen, seen)
	copy(ls.framesRead, framesRead)
	for core := range ls.pos {
		ls.pos[core] = dec.Int()
		hadFrame := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		for k := uint64(0); k < ls.framesRead[core]; k++ {
			f := ls.srcs[core].NextFrame()
			if f == nil {
				return fmt.Errorf("sim: core %d frame source ran dry after %d frames, checkpoint needs %d", core, k, ls.framesRead[core])
			}
			ls.frames[core] = f
		}
		if !hadFrame {
			ls.frames[core] = nil
		}
		if f := ls.frames[core]; f != nil && ls.pos[core] > f.Len() {
			return fmt.Errorf("sim: core %d frame position %d exceeds frame length %d", core, ls.pos[core], f.Len())
		}
	}
	if err := restorePhases(dec, v.phases); err != nil {
		return err
	}
	if err := s.l2.Restore(dec); err != nil {
		return err
	}
	for _, c := range s.l1 {
		if err := c.Restore(dec); err != nil {
			return err
		}
	}
	if err := s.strid.Restore(dec); err != nil {
		return err
	}
	return restorePref(dec, &v.pref, noHandlers)
}

// nextBoundary returns the first checkpoint boundary strictly above n.
func nextBoundary(n, every uint64) uint64 {
	return (n/every + 1) * every
}
