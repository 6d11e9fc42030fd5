package prefetch

import (
	"stms/internal/event"
	"stms/internal/stats"
)

// EngineConfig tunes the stream-following policy. The defaults implement
// the behaviour described in §4.2/§4.5 and are held constant across every
// prefetcher variant so experiments vary only the meta-data backend.
type EngineConfig struct {
	Cores        int
	BufferBlocks int // prefetch buffer capacity per core (32 = 2 KB)
	QueueCap     int // FIFO address queue depth per core (<=128 B, §5.3)
	LowWater     int // refill the queue when it drains below this
	Chunk        int // addresses fetched per history read (12 per 64-B line)
	AbandonAfter int // consecutive uncovered trigger misses before abandoning
	AdoptAfter   int // uncovered streak before a found stream replaces an active one
	MaxDepth     int // max blocks followed per lookup; 0 = unlimited (Fig. 6 right)

	// InitialCredit and CreditPerHit ramp each stream's runahead: a
	// freshly adopted stream may have only InitialCredit fetches in
	// flight, and each confirmed hit extends the allowance. This bounds
	// the bandwidth wasted on mispredicted streams to InitialCredit
	// blocks while letting confirmed streams fill the whole buffer.
	InitialCredit int
	CreditPerHit  int
}

// DefaultEngineConfig returns the paper's stream-engine parameters for the
// given core count.
func DefaultEngineConfig(cores int) EngineConfig {
	return EngineConfig{
		Cores:         cores,
		BufferBlocks:  32,
		QueueCap:      48,
		LowWater:      8,
		Chunk:         12,
		AbandonAfter:  4,
		AdoptAfter:    2,
		InitialCredit: 8,
		CreditPerHit:  4,
	}
}

// EngineStats aggregates stream-engine events across cores.
type EngineStats struct {
	Lookups    uint64 // index lookups issued
	LookupHits uint64 // lookups that found a stream
	Adopted    uint64 // streams adopted (followed)
	Abandoned  uint64 // streams abandoned after unproductive misses
	Resumed    uint64 // streams resumed past an end-mark
	DepthStops uint64 // streams stopped by the MaxDepth limit
	Exhausted  uint64 // streams that caught up with the history head

	IssuedPrefetches uint64 // blocks sent to the prefetch buffer
	FilteredOnChip   uint64 // candidates skipped because already cached
	FullHits         uint64 // covered misses, data ready in time
	PartialHits      uint64 // covered misses, data still in flight
	EvictedUnused    uint64 // erroneous prefetches (fetched, never used)

	// StreamLens samples the realized length of every followed stream
	// (value = hits, weight = hits): Figure 6 left.
	StreamLens stats.CDF
}

// Covered returns total covered misses.
func (s *EngineStats) Covered() uint64 { return s.FullHits + s.PartialHits }

type queued struct {
	addr uint64
	pos  uint64
}

type coreState struct {
	buf *Buffer

	// q is the FIFO address queue as a fixed ring (capacity QueueCap):
	// the engine tops it up by at most the remaining room, so it never
	// grows and never re-allocates.
	q     []queued
	qHead int
	qLen  int

	// cur is the followed stream's cursor, owned by the engine: adoption
	// copies the backend's (transient) lookup cursor into this storage,
	// and the engine advances it from delivered positions.
	cur        Cursor
	curSeq     uint64
	active     bool
	paused     bool
	markAddr   uint64
	lookBusy   bool
	readBusy   bool
	missStreak int
	hits       uint64
	lastHitPos uint64
	depth      int
	credit     int // remaining fetch allowance before more hits arrive

	// lookupDone is the premade continuation (one allocation at
	// construction) handed to Metadata.Lookup, replacing a per-call
	// closure. At most one lookup is in flight per core (lookBusy), so a
	// single shared continuation is unambiguous. History reads do NOT
	// share this property — an adopt can leave a stale read in flight
	// while the new stream issues its own — so those use pooled readOp
	// records instead.
	lookupDone func(*Cursor)
}

func (st *coreState) qPush(v queued) {
	st.q[(st.qHead+st.qLen)%len(st.q)] = v
	st.qLen++
}

func (st *coreState) qPop() queued {
	v := st.q[st.qHead]
	st.qHead = (st.qHead + 1) % len(st.q)
	st.qLen--
	return v
}

// Engine is the stream-following half of a temporal prefetcher (§4.2): it
// reacts to trigger misses by looking up streams in the Metadata backend,
// keeps each core's FIFO address queue and prefetch buffer full, pauses at
// end-marks, and abandons cold streams. All storage behaviour — latency
// and traffic — belongs to the backend.
type Engine struct {
	env  Env
	meta Metadata
	cfg  EngineConfig
	core []coreState
	seq  uint64
	st   EngineStats

	// freeOps recycles history-read continuation records. Each record's
	// closure is created once (capturing the record) and reused for the
	// record's whole life, so steady-state reads allocate nothing.
	freeOps []*readOp
}

// readOp identifies one in-flight Metadata.ReadNext: which core issued it
// and for which stream generation. Records outlive stream replacement, so
// a stale read completing after an adopt is recognized and dropped —
// exactly the captured-sequence guard the closure-based engine used.
type readOp struct {
	e    *Engine
	core int
	seq  uint64
	done func(addrs, positions []uint64, marked bool, markAddr uint64)
}

func (e *Engine) getReadOp(core int, seq uint64) *readOp {
	var op *readOp
	if n := len(e.freeOps); n > 0 {
		op = e.freeOps[n-1]
		e.freeOps = e.freeOps[:n-1]
	} else {
		op = &readOp{e: e}
		op.done = op.fire
	}
	op.core, op.seq = core, seq
	return op
}

// fire is the read's completion. The record is released before any
// processing so nested refills can reuse it.
func (op *readOp) fire(addrs, positions []uint64, marked bool, markAddr uint64) {
	e, core, seq := op.e, op.core, op.seq
	e.freeOps = append(e.freeOps, op)
	st := &e.core[core]
	if st.curSeq != seq || !st.active {
		return // stream replaced while the read was in flight
	}
	st.readBusy = false
	for i, a := range addrs {
		st.qPush(queued{addr: a, pos: positions[i]})
	}
	if n := len(addrs); n > 0 {
		st.cur.Pos = positions[n-1] + 1
	}
	if marked {
		st.paused = true
		st.markAddr = markAddr
	} else if len(addrs) == 0 {
		// Caught up with the history head: nothing more recorded.
		e.st.Exhausted++
		e.abandon(core)
		return
	}
	e.refill(core)
}

var _ Temporal = (*Engine)(nil)

// Engine event kinds (for completions delivered through Handle).
const engFetchArrived uint8 = 0

var _ event.Handler = (*Engine)(nil)

// NewEngine builds a stream engine over the given backend.
func NewEngine(env Env, meta Metadata, cfg EngineConfig) *Engine {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	e := &Engine{env: env, meta: meta, cfg: cfg, core: make([]coreState, cfg.Cores)}
	for i := range e.core {
		st := &e.core[i]
		st.buf = NewBuffer(cfg.BufferBlocks)
		st.q = make([]queued, cfg.QueueCap)
		core := i
		st.lookupDone = func(cur *Cursor) { e.lookupDone(core, cur) }
	}
	return e
}

// Handle implements event.Handler for the engine's typed completions:
// engFetchArrived marks a streamed block's arrival in core b's buffer.
func (e *Engine) Handle(now uint64, kind uint8, a, b uint64) {
	e.core[b].buf.Arrived(a, now)
}

// Name returns the backend's name.
func (e *Engine) Name() string { return e.meta.Name() }

// Stats returns the engine's counters.
func (e *Engine) Stats() *EngineStats { return &e.st }

// Metadata returns the backend (for experiment-specific inspection).
func (e *Engine) Metadata() Metadata { return e.meta }

// Probe services a demand L1 miss from the core's prefetch buffer.
func (e *Engine) Probe(core int, blk uint64, w event.Handler, wkind uint8, wa, wb uint64) ProbeResult {
	st := &e.core[core]
	res, stream, pos := st.buf.Probe(blk, w, wkind, wa, wb)
	if res.State == ProbeMiss {
		return res
	}
	switch res.State {
	case ProbeReady:
		e.st.FullHits++
	case ProbeInFlight:
		e.st.PartialHits++
	}
	if st.active && stream == st.curSeq {
		st.hits++
		st.missStreak = 0
		st.lastHitPos = pos
		st.credit += e.cfg.CreditPerHit
		if st.credit > e.cfg.BufferBlocks {
			st.credit = e.cfg.BufferBlocks
		}
		e.refill(core)
	}
	return res
}

// TriggerMiss reacts to an uncovered L2 demand read miss: resume a paused
// stream if this is the annotated address, otherwise look the address up.
func (e *Engine) TriggerMiss(core int, blk uint64) {
	st := &e.core[core]
	st.missStreak++
	if st.active && st.paused && blk == st.markAddr {
		e.st.Resumed++
		st.paused = false
		st.missStreak = 0
		e.meta.SkipMark(&st.cur)
		e.refill(core)
		return
	}
	if st.active && st.missStreak >= e.cfg.AbandonAfter {
		e.abandon(core)
	}
	if st.lookBusy {
		return // one outstanding lookup per core; opportunity lost (§5.4)
	}
	st.lookBusy = true
	e.st.Lookups++
	e.meta.Lookup(core, blk, st.lookupDone)
}

// lookupDone receives the backend's lookup result (the premade per-core
// continuation).
func (e *Engine) lookupDone(core int, cur *Cursor) {
	st := &e.core[core]
	st.lookBusy = false
	if cur == nil {
		return
	}
	e.st.LookupHits++
	// Adopt unless an adopted stream is currently productive.
	if st.active && st.missStreak < e.cfg.AdoptAfter {
		return
	}
	e.adopt(core, cur)
}

// Record forwards a retired off-chip miss or prefetched hit to the
// backend's history.
func (e *Engine) Record(core int, blk uint64, prefetchHit bool) {
	e.meta.Record(core, blk, prefetchHit)
}

// RecordWarm implements WarmRecorder by forwarding to the backend when it
// supports traffic-free warming, falling back to a plain miss Record.
func (e *Engine) RecordWarm(core int, blk uint64) {
	if w, ok := e.meta.(WarmRecorder); ok {
		w.RecordWarm(core, blk)
		return
	}
	e.meta.Record(core, blk, false)
}

func (e *Engine) adopt(core int, cur *Cursor) {
	st := &e.core[core]
	if st.active {
		e.abandon(core)
	}
	e.seq++
	st.cur = *cur // copy: the backend's cursor is transient
	st.curSeq = e.seq
	st.active = true
	st.paused = false
	st.readBusy = false // any in-flight read now belongs to a stale stream
	st.hits = 0
	st.depth = 0
	st.missStreak = 0
	st.credit = e.cfg.InitialCredit
	if st.credit <= 0 {
		st.credit = e.cfg.BufferBlocks
	}
	e.st.Adopted++
	e.refill(core)
}

func (e *Engine) abandon(core int) {
	st := &e.core[core]
	if !st.active {
		return
	}
	if st.hits > 0 {
		// Annotate the entry after the last useful prefetch (§4.5).
		e.meta.MarkEnd(st.cur.Core, st.lastHitPos+1)
		e.st.StreamLens.Add(float64(st.hits), float64(st.hits))
	}
	// Already-fetched blocks stay in the buffer: their bandwidth is
	// spent, the core may still consume them, and a future stream's
	// inserts evict them if space is needed.
	st.qHead, st.qLen = 0, 0
	st.active = false
	st.paused = false
	st.readBusy = false
	e.st.Abandoned++
}

// refill issues queued prefetches and tops the queue up from the history.
func (e *Engine) refill(core int) {
	st := &e.core[core]
	e.issue(core)
	if !st.active || st.paused || st.readBusy {
		return
	}
	if st.qLen > e.cfg.LowWater {
		return
	}
	if e.cfg.MaxDepth > 0 && st.depth >= e.cfg.MaxDepth {
		return
	}
	want := e.cfg.Chunk
	if room := e.cfg.QueueCap - st.qLen; room < want {
		want = room
	}
	if want <= 0 {
		return
	}
	st.readBusy = true
	op := e.getReadOp(core, st.curSeq)
	if t, ok := e.meta.(ReadTagger); ok {
		// Announce the issuing core and stream generation so a backend
		// that parks this read as a pending record can checkpoint and
		// later re-mint its completion (ReadDoneFor).
		t.SetNextRead(core, st.curSeq)
	}
	e.meta.ReadNext(&st.cur, want, op.done)
}

// issue drains the address queue into the prefetch buffer while space
// lasts, applying the on-chip filter and the depth limit.
func (e *Engine) issue(core int) {
	st := &e.core[core]
	for st.qLen > 0 {
		if e.cfg.MaxDepth > 0 && st.depth >= e.cfg.MaxDepth {
			e.st.DepthStops++
			e.abandon(core)
			return
		}
		if st.credit <= 0 || !st.buf.HasSpaceFor(st.curSeq) {
			return
		}
		q := st.qPop()
		st.depth++
		if e.env.OnChip(core, q.addr) || st.buf.Contains(q.addr) {
			e.st.FilteredOnChip++
			continue
		}
		if !st.buf.Insert(q.addr, st.curSeq, q.pos) {
			return
		}
		st.credit--
		e.st.IssuedPrefetches++
		e.env.FetchH(core, q.addr, e, engFetchArrived, q.addr, uint64(core))
	}
}

// Flush finalizes statistics at the end of a measurement window: samples
// still-active streams and counts leftover unused buffer blocks.
func (e *Engine) Flush() {
	for i := range e.core {
		st := &e.core[i]
		if st.active && st.hits > 0 {
			e.st.StreamLens.Add(float64(st.hits), float64(st.hits))
		}
		st.buf.FlushStats()
	}
}

// BufferStats sums prefetch-buffer counters across cores (the engine's
// FullHits/PartialHits mirror these; buffer eviction counts feed the
// erroneous-prefetch traffic split).
func (e *Engine) BufferStats() (issued, evicted, dropped uint64) {
	for i := range e.core {
		b := e.core[i].buf
		issued += b.Issued
		evicted += b.EvictedUnused
		dropped += b.Dropped
	}
	return
}
