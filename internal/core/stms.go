package core

import (
	"fmt"

	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
	"stms/internal/rng"
)

// Config sizes an STMS instance. Meta-data sizes follow §5.3: both the
// index table and the history buffers pack 12 entries per 64-byte block.
type Config struct {
	Cores int
	// HistoryBytesPerCore is each core's circular history buffer
	// allocation in main memory. The paper's commercial workloads need
	// ~32 MB aggregate (8 MB/core on 4 cores) for maximal coverage.
	HistoryBytesPerCore uint64
	// IndexBytes is the shared index table allocation; 16 MB suffices at
	// full scale (Fig. 5 right). Must give a power-of-two bucket count.
	IndexBytes uint64
	// BucketWays is entries per 64-byte bucket (12, §5.4).
	BucketWays int
	// SampleProb is the probabilistic-update sampling probability
	// (§4.4); the paper settles on 1/8.
	SampleProb float64
	// BucketBufferBytes is the on-chip bucket buffer (8 KB, §4.3).
	BucketBufferBytes int
	// Seed drives the update-sampling coin flips.
	Seed uint64
	// Org selects the index organization. The default (OrgBucketLRU) is
	// the paper's design; the alternatives exist for the §5.4 ablation
	// and bypass the bucket buffer (they have no bucket granularity to
	// cache usefully).
	Org IndexOrg
	// OpenProbeCap bounds linear probing for OrgOpenAddress (default 16).
	OpenProbeCap int
}

// DefaultConfig returns the paper's STMS configuration at full scale.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:               cores,
		HistoryBytesPerCore: 8 << 20,
		IndexBytes:          16 << 20,
		BucketWays:          12,
		SampleProb:          0.125,
		BucketBufferBytes:   8 << 10,
		Seed:                1,
	}
}

// Scaled shrinks the meta-data allocations by factor (on-chip structures
// keep their paper sizes).
func (c Config) Scaled(factor float64) Config {
	if factor <= 0 || factor == 1 {
		return c
	}
	out := c
	out.HistoryBytesPerCore = uint64(float64(c.HistoryBytesPerCore) * factor)
	if out.HistoryBytesPerCore < 64*prefetch.LineEntries {
		out.HistoryBytesPerCore = 64 * prefetch.LineEntries
	}
	out.IndexBytes = uint64(float64(c.IndexBytes) * factor)
	if out.IndexBytes < 64 {
		out.IndexBytes = 64
	}
	return out
}

// HistoryEntriesPerCore converts the byte allocation to entries.
func (c Config) HistoryEntriesPerCore() uint64 {
	n := c.HistoryBytesPerCore / 64 * prefetch.LineEntries
	if n < prefetch.LineEntries {
		n = prefetch.LineEntries
	}
	return n
}

// IndexBuckets converts the byte allocation to a power-of-two bucket
// count (one 64-byte block per bucket).
func (c Config) IndexBuckets() int {
	want := c.IndexBytes / 64
	if want < 1 {
		want = 1
	}
	n := 1
	for uint64(n)*2 <= want {
		n *= 2
	}
	return n
}

// Stats counts STMS-internal events (memory traffic is charged to the
// DRAM controller through the Env and accounted there).
type Stats struct {
	Records        uint64
	SampledUpdates uint64 // index updates performed
	SkippedUpdates uint64 // index updates suppressed by sampling
	HistoryWrites  uint64 // packed line write-backs
	LookupBufHits  uint64 // lookups served by the bucket buffer
	LookupReads    uint64 // lookups that paid a memory read
	UpdateBufHits  uint64 // updates absorbed by a resident bucket
	UpdateReads    uint64 // updates that paid a bucket read
	BucketWBs      uint64 // dirty bucket write-backs
	HistoryReads   uint64 // history line reads while streaming
	EndMarks       uint64 // stream-end annotations written
	StaleCursors   uint64 // stream reads that found wrapped history
	IndexStale     uint64 // lookups whose pointer had been overwritten
}

// Meta is the STMS meta-data engine: the prefetch.Metadata backend whose
// storage lives in simulated main memory. Pair it with prefetch.NewEngine
// to form the complete prefetcher (the New helper does).
//
// The backend is allocation-free in steady state: in-flight lookups and
// history reads ride pooled records addressed by index through the
// event.Handler completion payload, delivered cursors and address lines
// live in per-Meta scratch (valid only during the done call, per the
// Metadata contract), and the alternative index organizations — ablation
// paths — keep the simpler closure style.
type Meta struct {
	cfg  Config
	env  prefetch.Env
	idx  *IndexTable
	alt  altIndex      // non-nil for the alternative organizations
	bbuf *bucketBuffer // bound to idx; nil with alt
	hist []*prefetch.History
	wc   []int // per-core write-combining fill counts
	rnd  *rng.Rand
	st   Stats

	// Pooled in-flight operation records (see lookupRec/readRec).
	lookups  []lookupRec
	freeLook []int32
	reads    []readRec
	freeRead []int32

	// nextReadEng/nextReadSeq are the issuing core and stream
	// generation the engine announced for the next ReadNext
	// (prefetch.ReadTagger); recorded on the pending read so
	// checkpoints can re-wire its continuation.
	nextReadEng int
	nextReadSeq uint64

	// Scratch for transient results handed to done callbacks.
	scratchCur  prefetch.Cursor
	scratchLine prefetch.Line
}

// Completion kinds for the event.Handler side of Meta.
const (
	mkLookupDone uint8 = iota // a = lookup record index
	mkReadDone                // a = read record index
	mkUpdateRead              // a = index bucket number
)

// lookupRec is one in-flight index lookup: the pointer resolved at issue
// time plus the continuation.
type lookupRec struct {
	cur    prefetch.Cursor
	ok     bool
	bucket uint32
	core   int // issuing core: identifies the engine continuation at restore
	done   func(*prefetch.Cursor)
}

// readRec is one in-flight history line read: the position captured at
// issue time plus the continuation. core names the history being read
// (the cursor's owner); eng is the issuing core and seq the stream
// generation the engine announced via SetNextRead — checkpointing uses
// the pair to re-mint the continuation on restore.
type readRec struct {
	core int
	eng  int
	pos  uint64
	max  int
	seq  uint64
	done func(addrs, positions []uint64, marked bool, markAddr uint64)
}

var _ prefetch.Metadata = (*Meta)(nil)
var _ event.Handler = (*Meta)(nil)

// NewMeta builds the STMS meta-data engine over env.
func NewMeta(env prefetch.Env, cfg Config) *Meta {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.BucketWays <= 0 {
		cfg.BucketWays = 12
	}
	if cfg.SampleProb <= 0 || cfg.SampleProb > 1 {
		panic(fmt.Sprintf("core: sample probability %v out of (0,1]", cfg.SampleProb))
	}
	m := &Meta{
		cfg: cfg,
		env: env,
		wc:  make([]int, cfg.Cores),
		rnd: rng.New(cfg.Seed ^ 0x57a7e5eed),
	}
	switch cfg.Org {
	case OrgDirectMapped:
		m.alt = newDirectIndex(cfg.IndexBytes)
	case OrgOpenAddress:
		m.alt = newOpenIndex(cfg.IndexBytes, cfg.OpenProbeCap)
	default:
		m.idx = NewIndexTable(cfg.IndexBuckets(), cfg.BucketWays)
		m.bbuf = newBucketBuffer(cfg.BucketBufferBytes/64, m.idx)
	}
	m.hist = prefetch.Histories(env, cfg.Cores, cfg.HistoryEntriesPerCore())
	return m
}

// New builds a complete STMS prefetcher: meta-data engine plus the shared
// stream engine.
func New(env prefetch.Env, cfg Config, ecfg prefetch.EngineConfig) (*prefetch.Engine, *Meta) {
	m := NewMeta(env, cfg)
	return prefetch.NewEngine(env, m, ecfg), m
}

// Name identifies the backend.
func (m *Meta) Name() string { return "stms" }

// Config returns the build configuration.
func (m *Meta) Config() Config { return m.cfg }

// Stats returns internal counters.
func (m *Meta) Stats() Stats { return m.st }

// Index exposes the index table (tests, harness); nil when an alternative
// organization is configured.
func (m *Meta) Index() *IndexTable { return m.idx }

// History exposes a core's history buffer (tests, harness).
func (m *Meta) History(core int) *prefetch.History { return m.hist[core] }

func pack(core int, pos uint64) uint64 { return uint64(core)<<56 | pos }

func unpack(v uint64) (core int, pos uint64) {
	return int(v >> 56), v & (1<<56 - 1)
}

// Hint asks the host to start loading the index line a miss on blk will
// look up and update (IndexTable.Hint); a no-op for the alternative
// organizations. It changes no state.
func (m *Meta) Hint(blk uint64) {
	if m.idx != nil {
		m.idx.Hint(blk)
	}
}

// Lookup hashes blk to its bucket and resolves it: from the bucket buffer
// when resident (no memory traffic), otherwise with exactly one
// low-priority memory read (§4.3). The resolved pointer addresses the
// most recent recorded occurrence of blk in any core's history.
//
// The pointer is captured at issue time — in hardware the lookup races
// ahead of the retirement-time index update for the same miss, so the
// lookup must observe the table before this occurrence of blk is
// recorded. The cursor is revalidated at every ReadNext, so a pointer
// that goes stale during the memory round-trip simply yields no stream.
func (m *Meta) Lookup(core int, blk uint64, done func(*prefetch.Cursor)) {
	if m.alt != nil {
		m.lookupAlt(blk, done)
		return
	}
	bi := m.idx.BucketOf(blk)
	cur, ok := m.resolve(bi, blk)
	if m.bbuf.touch(bi, false) {
		m.st.LookupBufHits++
		m.deliverCursor(cur, ok, done)
		return
	}
	m.st.LookupReads++
	ri := m.getLookup()
	m.lookups[ri] = lookupRec{cur: cur, ok: ok, bucket: bi, core: core, done: done}
	m.env.MetaReadH(dram.IndexLookup, m, mkLookupDone, uint64(ri), 0)
}

// deliverCursor hands a resolved pointer to done through the per-Meta
// scratch cursor (transient per the Metadata contract).
func (m *Meta) deliverCursor(cur prefetch.Cursor, ok bool, done func(*prefetch.Cursor)) {
	if !ok {
		done(nil)
		return
	}
	m.scratchCur = cur
	done(&m.scratchCur)
}

func (m *Meta) getLookup() int32 {
	if n := len(m.freeLook); n > 0 {
		i := m.freeLook[n-1]
		m.freeLook = m.freeLook[:n-1]
		return i
	}
	m.lookups = append(m.lookups, lookupRec{})
	return int32(len(m.lookups) - 1)
}

func (m *Meta) getRead() int32 {
	if n := len(m.freeRead); n > 0 {
		i := m.freeRead[n-1]
		m.freeRead = m.freeRead[:n-1]
		return i
	}
	m.reads = append(m.reads, readRec{})
	return int32(len(m.reads) - 1)
}

// Handle implements event.Handler: completions of the backend's simulated
// memory reads.
func (m *Meta) Handle(now uint64, kind uint8, a, b uint64) {
	switch kind {
	case mkLookupDone:
		rec := m.lookups[a]
		m.lookups[a] = lookupRec{} // drop the continuation reference
		m.freeLook = append(m.freeLook, int32(a))
		if m.bbuf.insert(rec.bucket, false) {
			m.env.MetaWrite(dram.IndexUpdateWr)
			m.st.BucketWBs++
		}
		m.deliverCursor(rec.cur, rec.ok, rec.done)
	case mkReadDone:
		rec := m.reads[a]
		m.reads[a] = readRec{}
		m.freeRead = append(m.freeRead, int32(a))
		n, marked, markAddr := m.hist[rec.core].ReadLine(rec.pos, rec.max, &m.scratchLine)
		rec.done(m.scratchLine.Addrs[:n], m.scratchLine.Positions[:n], marked, markAddr)
	case mkUpdateRead:
		if m.bbuf.insert(uint32(a), true) {
			m.env.MetaWrite(dram.IndexUpdateWr)
			m.st.BucketWBs++
		}
	}
}

// lookupAlt serves a lookup from an alternative organization: the pointer
// resolves at issue time (as always), and the probed lines are charged as
// chained memory reads — the latency/bandwidth penalty §5.4 rejects.
// (Ablation-only path; keeps the closure style.)
func (m *Meta) lookupAlt(blk uint64, done func(*prefetch.Cursor)) {
	ptr, ok, lines := m.alt.Lookup(blk)
	var cur prefetch.Cursor
	if ok {
		cur, ok = m.cursorFor(blk, ptr)
	}
	m.st.LookupReads += uint64(lines)
	remaining := lines
	var step func(uint64)
	step = func(uint64) {
		remaining--
		if remaining > 0 {
			m.env.MetaRead(dram.IndexLookup, step)
			return
		}
		m.deliverCursor(cur, ok, done)
	}
	m.env.MetaRead(dram.IndexLookup, step)
}

// resolve is IndexTable.Lookup of blk, whose bucket is bi, in its two
// inlinable halves.
func (m *Meta) resolve(bi uint32, blk uint64) (prefetch.Cursor, bool) {
	h, ptr, ok := m.idx.probe(bi, blk)
	if !ok {
		ptr, ok = m.idx.lookupOverflow(h, blk)
	}
	if !ok {
		return prefetch.Cursor{}, false
	}
	return m.cursorFor(blk, ptr)
}

// cursorFor validates a packed history pointer against the live history
// contents and builds the successor cursor.
func (m *Meta) cursorFor(blk, ptr uint64) (prefetch.Cursor, bool) {
	owner, pos := unpack(ptr)
	if owner >= len(m.hist) {
		return prefetch.Cursor{}, false
	}
	got, _, live := m.hist[owner].Get(pos)
	if !live || got != blk {
		m.st.IndexStale++
		return prefetch.Cursor{}, false
	}
	return prefetch.Cursor{Core: owner, Pos: pos + 1}, true
}

// ReadNext reads the history line containing the cursor with one memory
// access and delivers the packed entries after it (§4.5): long streams
// cost one read per 12 addresses. The position is captured at call time
// per the Metadata contract; the line itself is read when the simulated
// access completes.
func (m *Meta) ReadNext(cur *prefetch.Cursor, max int, done func(addrs, positions []uint64, marked bool, markAddr uint64)) {
	h := m.hist[cur.Core]
	if cur.Pos >= h.Head() {
		// Caught up with the recording head: nothing to read (the
		// stream engine treats this as end of recorded data).
		done(nil, nil, false, 0)
		return
	}
	if !h.Valid(cur.Pos) {
		m.st.StaleCursors++
		done(nil, nil, false, 0)
		return
	}
	m.st.HistoryReads++
	ri := m.getRead()
	m.reads[ri] = readRec{core: cur.Core, eng: m.nextReadEng, pos: cur.Pos, max: max, seq: m.nextReadSeq, done: done}
	m.env.MetaReadH(dram.HistoryRead, m, mkReadDone, uint64(ri), 0)
}

// SkipMark advances the cursor past an end annotation after the core
// explicitly requested the annotated address.
func (m *Meta) SkipMark(cur *prefetch.Cursor) { cur.Pos++ }

// Record appends a retired off-chip miss or prefetched hit to the core's
// history through the write-combining buffer (one packed line write per 12
// entries, §4.2) and applies the sampled index update (§4.4).
func (m *Meta) Record(core int, blk uint64, prefetchHit bool) {
	m.st.Records++
	pos := m.hist[core].Append(blk)
	m.wc[core]++
	if m.wc[core] >= prefetch.LineEntries {
		m.wc[core] = 0
		m.st.HistoryWrites++
		m.env.MetaWrite(dram.HistoryAppend)
	}
	// Probabilistic update: a biased coin flip gates every index update.
	if !m.rnd.Bool(m.cfg.SampleProb) {
		m.st.SkippedUpdates++
		return
	}
	m.st.SampledUpdates++
	ptr := pack(core, pos)
	if m.alt != nil {
		// Alternative organizations: read-modify-write the probed lines
		// directly (no bucket buffer).
		lines := m.alt.Update(blk, ptr)
		m.st.UpdateReads += uint64(lines)
		for i := 0; i < lines; i++ {
			m.env.MetaRead(dram.IndexUpdateRd, nil)
		}
		m.env.MetaWrite(dram.IndexUpdateWr)
		m.st.BucketWBs++
		return
	}
	bi := m.idx.BucketOf(blk)
	// The functional table is updated immediately (it is authoritative);
	// the memory traffic is charged according to bucket-buffer residency.
	m.idx.Update(blk, ptr)
	if m.bbuf.touch(bi, true) {
		m.st.UpdateBufHits++
		return
	}
	m.st.UpdateReads++
	m.env.MetaReadH(dram.IndexUpdateRd, m, mkUpdateRead, uint64(bi), 0)
}

// RecordWarm implements prefetch.WarmRecorder: the warming-pass variant
// of Record. It applies the identical history append and sampled index
// update — including the write-combining counter and the biased coin
// flip, so the warmed state is distributionally indistinguishable from a
// full Record pass — but charges no memory traffic and never touches the
// bucket buffer, whose residency only shapes how update traffic is
// billed, not what the index ends up containing.
func (m *Meta) RecordWarm(core int, blk uint64) {
	m.st.Records++
	pos := m.hist[core].Append(blk)
	m.wc[core]++
	if m.wc[core] >= prefetch.LineEntries {
		m.wc[core] = 0
	}
	if !m.rnd.Bool(m.cfg.SampleProb) {
		m.st.SkippedUpdates++
		return
	}
	m.st.SampledUpdates++
	ptr := pack(core, pos)
	if m.alt != nil {
		m.alt.Update(blk, ptr)
		return
	}
	m.idx.Update(blk, ptr)
}

// MarkEnd writes a stream-end annotation at pos in core's history (§4.5);
// one low-priority memory write when the position is still live.
func (m *Meta) MarkEnd(core int, pos uint64) {
	if m.hist[core].Mark(pos) {
		m.st.EndMarks++
		m.env.MetaWrite(dram.EndMarkWrite)
	}
}
