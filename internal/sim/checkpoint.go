package sim

import (
	"bytes"
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

// RunOption configures a Run or Sample call: its driver, progress
// reporting, and checkpointing.
type RunOption func(*runOpts)

type runOpts struct {
	mode      Mode
	progress  Progress
	every     uint64
	path      string
	sink      func(data []byte) error
	haltAfter int
	stopCh    <-chan struct{}
	resume    []byte

	// Set by the sampling scheduler only. warm is functionally warmed
	// state (a "sim.warm" snapshot of caches, stride tables and temporal
	// prefetcher) injected into a freshly constructed timed system
	// before its cores start; resumed runs ignore it, as their checkpoint
	// restores the full state. windowClock ends the measured interval at
	// the last instruction commit (max core FinishTime) instead of the
	// memory-channel drain: a full run pays the end-of-run drain tail
	// once, so it belongs in the exact numbers, but a K-window sampled
	// run would pay it K times, which inflates cycles-per-instruction in
	// every window.
	warm        *ckpt.Snapshot
	windowClock bool
}

func (o *runOpts) active() bool {
	return o.every > 0 || o.stopCh != nil
}

// WithMode selects the simulation driver (default Timed). Sampled runs
// are always timed.
func WithMode(m Mode) RunOption {
	return func(o *runOpts) { o.mode = m }
}

// WithProgress registers a completion callback for the run.
func WithProgress(p Progress) RunOption {
	return func(o *runOpts) { o.progress = p }
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
// checkpoint file) before the first event fires; Sample resumes from a
// sampled container the same way. The mode, configuration, complete
// prefetcher spec and trace identity of the run must match the ones
// recorded in the checkpoint (Peek reads them back, and
// CheckpointDesc.Input rebuilds the trace input); a mismatch fails the
// run before any progress callback or checkpoint write.
func WithResume(data []byte) RunOption {
	return func(o *runOpts) { o.resume = data }
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
	kind string     // "spec" | "scenario" | "tape" | "external" | "window:<kind>"
	spec trace.Spec // the unscaled spec, or a tape's own spec
	scn  trace.Scenario
}

// CheckpointDesc is the JSON run descriptor at the head of every
// checkpoint: everything needed to reconstruct the run it belongs to.
// Spec and Scenario are the original (unscaled) inputs; tape-backed
// checkpoints echo the tape's spec for identity validation and need
// the tape itself handed to Input.
type CheckpointDesc struct {
	Mode     string          `json:"mode"`   // "timed" | "functional" | "sampled"
	Source   string          `json:"source"` // "spec" | "scenario" | "tape"
	Cfg      Config          `json:"cfg"`
	PS       PrefSpec        `json:"ps"`
	Spec     *trace.Spec     `json:"spec,omitempty"`
	Scenario *trace.Scenario `json:"scenario,omitempty"`
	Records  uint64          `json:"records"` // records processed at capture
	// Sampling is a sampled container's window plan (Mode "sampled");
	// it travels in the sampled descriptor, not in this JSON.
	Sampling Sampling `json:"-"`
}

// Peek opens a sealed checkpoint — an exact run's or a sampled run's
// combined container — and returns its descriptor without restoring
// anything. Resume a run with Run (or Sample, for Mode "sampled") over
// d.Input, d.Cfg and d.PS, passing WithResume(data).
func Peek(data []byte) (CheckpointDesc, error) {
	payload, err := ckpt.Open(data)
	if err != nil {
		return CheckpointDesc{}, err
	}
	if ckpt.NewDecoder(payload).String() == "sim.sampled" {
		d, _, _, err := openSampled(data)
		return d, err
	}
	d, _, err := readDesc(payload)
	return d, err
}

// Input rebuilds the trace input the checkpointed run consumed. Spec-
// and scenario-backed runs carry their input in the descriptor;
// tape-backed runs need the tape (re-fetched by key in the distributed
// lab, rebuilt locally otherwise), whose identity the resumed run
// checks against the descriptor.
func (d CheckpointDesc) Input(tape *trace.Tape) (Input, error) {
	switch {
	case d.Source == "tape" && tape != nil:
		return FromTape(tape), nil
	case d.Source == "tape":
		return Input{}, fmt.Errorf("sim: checkpoint is tape-backed; resuming it needs the tape")
	case d.Source == "spec" && d.Spec != nil:
		return FromSpec(*d.Spec), nil
	case d.Source == "scenario" && d.Scenario != nil:
		return FromScenario(*d.Scenario), nil
	}
	return Input{}, fmt.Errorf("sim: checkpoint descriptor names unknown run shape (mode %q, source %q)", d.Mode, d.Source)
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

func descFor(mode string, src ckptSrc, cfg Config, ps PrefSpec, records uint64) CheckpointDesc {
	d := CheckpointDesc{Mode: mode, Source: src.kind, Cfg: cfg, PS: ps, Records: records}
	switch src.kind {
	case "spec", "tape":
		sp := src.spec
		d.Spec = &sp
	case "scenario":
		sc := src.scn
		d.Scenario = &sc
	}
	return d
}

// checkDesc validates a resume descriptor against the run being
// restored into: mode, source, configuration, sampling plan, the
// complete prefetcher spec (not just its kind: a checkpoint from a different sampling
// probability or engine geometry would restore cleanly and then produce
// wrong results) and the trace identity.
func checkDesc(d, want CheckpointDesc) error {
	switch {
	case d.Mode != want.Mode:
		return fmt.Errorf("sim: checkpoint is a %s-mode run, resuming %s", d.Mode, want.Mode)
	case d.Source != want.Source:
		return fmt.Errorf("sim: checkpoint source %q does not match run source %q", d.Source, want.Source)
	case d.Cfg != want.Cfg:
		return fmt.Errorf("sim: checkpoint configuration does not match the run's")
	case d.PS.Kind != want.PS.Kind:
		return fmt.Errorf("sim: checkpoint is a %s run, resuming %s", d.PS.Kind, want.PS.Kind)
	case d.Sampling != want.Sampling:
		return fmt.Errorf("sim: sampled checkpoint parameters %+v do not match the run's %+v", d.Sampling, want.Sampling)
	}
	dps, err1 := json.Marshal(d.PS)
	wps, err2 := json.Marshal(want.PS)
	if err1 != nil || err2 != nil || !bytes.Equal(dps, wps) {
		return fmt.Errorf("sim: checkpoint prefetcher spec does not match the run's")
	}
	switch want.Source {
	case "spec", "tape":
		if d.Spec == nil || *d.Spec != *want.Spec {
			return fmt.Errorf("sim: checkpoint %s does not match the run's", want.Source)
		}
	case "scenario":
		sc := want.Cfg.Scale
		if d.Scenario == nil || d.Scenario.Scaled(sc).Key() != want.Scenario.Scaled(sc).Key() {
			return fmt.Errorf("sim: checkpoint scenario does not match the run's")
		}
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
	d := descFor("timed", s.src, s.cfg, s.ps, s.allRecs)
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
