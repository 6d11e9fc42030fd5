package core

import (
	"fmt"

	"stms/internal/ckpt"
	"stms/internal/prefetch"
)

// SetNextRead implements prefetch.ReadTagger: the engine announces the
// issuing core and stream generation of the next ReadNext so the
// pending record can carry them (checkpoint restore re-mints the
// continuation from the pair; the issuing core is distinct from the
// cursor's core whenever a core follows another core's history).
func (m *Meta) SetNextRead(core int, seq uint64) {
	m.nextReadEng = core
	m.nextReadSeq = seq
}

var _ prefetch.ReadTagger = (*Meta)(nil)

// Checkpointable reports whether this Meta's configuration supports
// snapshot/restore. The alternative index organizations (the §5.4
// ablation paths) chain closure-based memory reads that cannot be
// serialized.
func (m *Meta) Checkpointable() error {
	if m.alt != nil {
		return fmt.Errorf("core: index organization %v is not checkpointable (closure-based ablation path)", m.cfg.Org)
	}
	return nil
}

// Snapshot serializes the index table: contents, occupancy, counters.
func (t *IndexTable) Snapshot(enc *ckpt.Encoder) {
	enc.Section("core.IndexTable")
	enc.Int(t.ways)
	enc.Int(len(t.blen))
	enc.U64s(t.keys)
	enc.U64s(t.ptrs)
	enc.U64(uint64(len(t.blen)))
	for _, l := range t.blen {
		enc.U8(l)
	}
	enc.U64(t.Hits)
	enc.U64(t.Misses)
	enc.U64(t.Updates)
	enc.U64(t.Inserts)
	enc.U64(t.Evictions)
}

// Restore rebuilds the table from a Snapshot taken on an identically
// sized table.
func (t *IndexTable) Restore(dec *ckpt.Decoder) error {
	dec.Section("core.IndexTable")
	ways := dec.Int()
	buckets := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if ways != t.ways || buckets != len(t.blen) {
		return fmt.Errorf("core: index snapshot %dx%d does not match %dx%d", buckets, ways, len(t.blen), t.ways)
	}
	keys := dec.U64s()
	ptrs := dec.U64s()
	nb := int(dec.U64())
	if err := dec.Err(); err != nil {
		return err
	}
	if len(keys) != len(t.keys) || len(ptrs) != len(t.ptrs) || nb != len(t.blen) {
		return fmt.Errorf("core: corrupt index snapshot")
	}
	t.keys = keys
	t.ptrs = ptrs
	for i := range t.blen {
		t.blen[i] = dec.U8()
	}
	t.Hits = dec.U64()
	t.Misses = dec.U64()
	t.Updates = dec.U64()
	t.Inserts = dec.U64()
	t.Evictions = dec.U64()
	return dec.Err()
}

// snapshot serializes the bucket buffer's residency in LRU order
// (tail→head) plus its counters.
func (b *bucketBuffer) snapshot(enc *ckpt.Encoder) {
	enc.Section("core.bucketBuffer")
	enc.Int(b.cap)
	enc.Int(b.m.Len())
	for i := b.tail; i != bbNil; i = b.nodes[i].prev {
		enc.U32(b.nodes[i].id)
		enc.Bool(b.nodes[i].dirty)
	}
	enc.U64(b.Hits)
	enc.U64(b.MissesRead)
	enc.U64(b.Writebacks)
}

// restore rebuilds the bucket buffer from a snapshot: entries are
// re-inserted LRU-first so pushFront reproduces the exact order.
func (b *bucketBuffer) restore(dec *ckpt.Decoder) error {
	dec.Section("core.bucketBuffer")
	capacity := dec.Int()
	count := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != b.cap {
		return fmt.Errorf("core: bucket buffer snapshot capacity %d does not match %d", capacity, b.cap)
	}
	if b.m.Len() != 0 {
		return fmt.Errorf("core: restore into non-empty bucket buffer")
	}
	for k := 0; k < count; k++ {
		id := dec.U32()
		dirty := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		if b.m.Contains(uint64(id)) {
			return fmt.Errorf("core: bucket buffer snapshot repeats bucket %d", id)
		}
		b.nodes = append(b.nodes, bbNode{id: id, dirty: dirty, prev: bbNil, next: bbNil})
		i := int32(len(b.nodes) - 1)
		b.m.Put(uint64(id), i)
		b.pushFront(i)
	}
	b.Hits = dec.U64()
	b.MissesRead = dec.U64()
	b.Writebacks = dec.U64()
	return dec.Err()
}

// Snapshot serializes the STMS backend: histories, index table, bucket
// buffer, RNG stream, counters, write-combining state, and every
// pending in-flight lookup/read record at its exact slot index (pending
// completion events address records by index, so slots must survive).
func (m *Meta) Snapshot(enc *ckpt.Encoder) error {
	if err := m.Checkpointable(); err != nil {
		return err
	}
	enc.Section("core.Meta")
	enc.Int(len(m.hist))
	for _, h := range m.hist {
		h.Snapshot(enc)
	}
	m.idx.Snapshot(enc)
	m.bbuf.snapshot(enc)
	st := m.rnd.State()
	enc.U64(st[0])
	enc.U64(st[1])
	enc.U64(st[2])
	enc.U64(st[3])
	enc.Int(m.nextReadEng)
	enc.U64(m.nextReadSeq)
	enc.U64(uint64(len(m.wc)))
	for _, w := range m.wc {
		enc.Int(w)
	}
	enc.U64(m.st.Records)
	enc.U64(m.st.SampledUpdates)
	enc.U64(m.st.SkippedUpdates)
	enc.U64(m.st.HistoryWrites)
	enc.U64(m.st.LookupBufHits)
	enc.U64(m.st.LookupReads)
	enc.U64(m.st.UpdateBufHits)
	enc.U64(m.st.UpdateReads)
	enc.U64(m.st.BucketWBs)
	enc.U64(m.st.HistoryReads)
	enc.U64(m.st.EndMarks)
	enc.U64(m.st.StaleCursors)
	enc.U64(m.st.IndexStale)

	// Pending lookups: slot table size, free list, then in-use records.
	enc.Int(len(m.lookups))
	enc.I32s(m.freeLook)
	for i := range m.lookups {
		if inFree(m.freeLook, int32(i)) {
			continue
		}
		enc.Int(i)
		rec := &m.lookups[i]
		enc.Int(rec.cur.Core)
		enc.U64(rec.cur.Pos)
		enc.U64(rec.cur.ID)
		enc.Bool(rec.ok)
		enc.U32(rec.bucket)
		enc.Int(rec.core)
	}
	enc.Int(-1) // in-use terminator

	enc.Int(len(m.reads))
	enc.I32s(m.freeRead)
	for i := range m.reads {
		if inFree(m.freeRead, int32(i)) {
			continue
		}
		enc.Int(i)
		rec := &m.reads[i]
		enc.Int(rec.core)
		enc.Int(rec.eng)
		enc.U64(rec.pos)
		enc.Int(rec.max)
		enc.U64(rec.seq)
	}
	enc.Int(-1)
	return nil
}

func inFree(free []int32, i int32) bool {
	for _, f := range free {
		if f == i {
			return true
		}
	}
	return false
}

// Restore rebuilds the backend from a Snapshot. The Meta must be
// freshly constructed with the same configuration. lookupDoneOf and
// readDoneOf re-mint the stream engine's continuations for the pending
// records (prefetch.Engine.LookupDoneFor / ReadDoneFor).
func (m *Meta) Restore(dec *ckpt.Decoder,
	lookupDoneOf func(core int) func(*prefetch.Cursor),
	readDoneOf func(core int, seq uint64) func(addrs, positions []uint64, marked bool, markAddr uint64)) error {
	if err := m.Checkpointable(); err != nil {
		return err
	}
	dec.Section("core.Meta")
	nh := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nh != len(m.hist) {
		return fmt.Errorf("core: meta snapshot has %d histories, want %d", nh, len(m.hist))
	}
	for _, h := range m.hist {
		if err := h.Restore(dec); err != nil {
			return err
		}
	}
	if err := m.idx.Restore(dec); err != nil {
		return err
	}
	if err := m.bbuf.restore(dec); err != nil {
		return err
	}
	var rs [4]uint64
	rs[0] = dec.U64()
	rs[1] = dec.U64()
	rs[2] = dec.U64()
	rs[3] = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	m.rnd.SetState(rs)
	m.nextReadEng = dec.Int()
	m.nextReadSeq = dec.U64()
	nw := int(dec.U64())
	if dec.Err() != nil {
		return dec.Err()
	}
	if nw != len(m.wc) {
		return fmt.Errorf("core: meta snapshot has %d write-combine slots, want %d", nw, len(m.wc))
	}
	for i := range m.wc {
		m.wc[i] = dec.Int()
	}
	m.st.Records = dec.U64()
	m.st.SampledUpdates = dec.U64()
	m.st.SkippedUpdates = dec.U64()
	m.st.HistoryWrites = dec.U64()
	m.st.LookupBufHits = dec.U64()
	m.st.LookupReads = dec.U64()
	m.st.UpdateBufHits = dec.U64()
	m.st.UpdateReads = dec.U64()
	m.st.BucketWBs = dec.U64()
	m.st.HistoryReads = dec.U64()
	m.st.EndMarks = dec.U64()
	m.st.StaleCursors = dec.U64()
	m.st.IndexStale = dec.U64()

	nl := dec.Int()
	m.freeLook = dec.I32s()
	if err := dec.Err(); err != nil {
		return err
	}
	m.lookups = make([]lookupRec, nl)
	for {
		i := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if i < 0 {
			break
		}
		if i >= nl {
			return fmt.Errorf("core: lookup record index %d out of range %d", i, nl)
		}
		rec := &m.lookups[i]
		rec.cur.Core = dec.Int()
		rec.cur.Pos = dec.U64()
		rec.cur.ID = dec.U64()
		rec.ok = dec.Bool()
		rec.bucket = dec.U32()
		rec.core = dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		rec.done = lookupDoneOf(rec.core)
	}

	nr := dec.Int()
	m.freeRead = dec.I32s()
	if err := dec.Err(); err != nil {
		return err
	}
	m.reads = make([]readRec, nr)
	for {
		i := dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if i < 0 {
			break
		}
		if i >= nr {
			return fmt.Errorf("core: read record index %d out of range %d", i, nr)
		}
		rec := &m.reads[i]
		rec.core = dec.Int()
		rec.eng = dec.Int()
		rec.pos = dec.U64()
		rec.max = dec.Int()
		rec.seq = dec.U64()
		if dec.Err() != nil {
			return dec.Err()
		}
		rec.done = readDoneOf(rec.eng, rec.seq)
	}
	return dec.Err()
}
