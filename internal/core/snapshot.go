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
// The format is the dense one of a full-capacity table: every bucket's
// ways keys, MRU first and zero-padded past its length, then the
// pointers laid out the same way, then the length bytes.
func (t *IndexTable) Snapshot(enc *ckpt.Encoder) {
	enc.Section("core.IndexTable")
	enc.Int(t.ways)
	enc.Int(len(t.heads))
	for _, ptrs := range []bool{false, true} {
		enc.U64(uint64(len(t.heads) * t.ways))
		for i := range t.heads {
			h := &t.heads[i]
			for w := range t.ways {
				var v uint64
				if w < int(h.n) {
					e := t.slot(h, w)
					v = e.blk
					if ptrs {
						v = e.ptr
					}
				}
				enc.U64(v)
			}
		}
	}
	enc.U64(uint64(len(t.heads)))
	for i := range t.heads {
		enc.U8(uint8(t.heads[i].n))
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
	if ways != t.ways || buckets != len(t.heads) {
		return fmt.Errorf("core: index snapshot %dx%d does not match %dx%d", buckets, ways, len(t.heads), t.ways)
	}
	keys := dec.U64s()
	ptrs := dec.U64s()
	nb := int(dec.U64())
	if err := dec.Err(); err != nil {
		return err
	}
	if len(keys) != buckets*ways || len(ptrs) != buckets*ways || nb != buckets {
		return fmt.Errorf("%w: core: index snapshot holds %d keys, %d pointers and %d lengths for %dx%d",
			ckpt.ErrCorrupt, len(keys), len(ptrs), nb, buckets, ways)
	}
	lens := make([]uint8, buckets)
	for i := range lens {
		lens[i] = dec.U8()
		if int(lens[i]) > ways {
			return fmt.Errorf("%w: core: index snapshot bucket %d holds %d entries over %d ways", ckpt.ErrCorrupt, i, lens[i], ways)
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	clear(t.heads)
	t.pages, t.next = nil, 0
	for i := range t.heads {
		h := &t.heads[i]
		if lens[i] > headWays {
			t.grow(h)
		}
		h.n = uint32(lens[i])
		for w := range int(h.n) {
			*t.slot(h, w) = indexEntry{blk: keys[i*ways+w], ptr: ptrs[i*ways+w]}
		}
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
	enc.Int(len(b.nodes))
	for i := b.tail; i != bbNil; i = b.nodes[i].prev {
		enc.U32(b.nodes[i].id)
		enc.Bool(b.nodes[i].dirty)
	}
	enc.U64(b.Hits)
	enc.U64(b.MissesRead)
	enc.U64(b.Writebacks)
}

// restore rebuilds the bucket buffer from a snapshot: entries are
// re-inserted LRU-first so pushFront reproduces the exact order. It runs
// after the table's Restore, which clears every head's residency.
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
	if count < 0 || count > b.cap {
		return fmt.Errorf("%w: core: bucket buffer snapshot holds %d buckets over capacity %d", ckpt.ErrCorrupt, count, b.cap)
	}
	if len(b.nodes) != 0 {
		return fmt.Errorf("core: restore into non-empty bucket buffer")
	}
	for k := 0; k < count; k++ {
		id := dec.U32()
		dirty := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		if int(id) >= len(b.heads) {
			return fmt.Errorf("%w: core: bucket buffer snapshot names bucket %d of %d", ckpt.ErrCorrupt, id, len(b.heads))
		}
		if b.heads[id].bb != 0 {
			return fmt.Errorf("%w: core: bucket buffer snapshot repeats bucket %d", ckpt.ErrCorrupt, id)
		}
		b.nodes = append(b.nodes, bbNode{id: id, dirty: dirty, prev: bbNil, next: bbNil})
		i := int32(len(b.nodes) - 1)
		b.heads[id].bb = i + 1
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

// The smallest encodings of an in-use pending record: its slot index,
// then the fields Snapshot writes.
const (
	lookupRecBytes = 8 + 8 + 8 + 8 + 1 + 4 + 8
	readRecBytes   = 8 + 8 + 8 + 8 + 8 + 8
)

// checkSlots bounds a pending-record slot table before it is allocated:
// every slot is on the free list or is an in-use record encoded in the
// bytes that remain, and every free slot names one of the table's slots.
func checkSlots(what string, n int, free []int32, remaining, recBytes int) error {
	if n < 0 || n > len(free)+remaining/recBytes {
		return fmt.Errorf("%w: core: meta snapshot has %d %s slots, %d free and %d bytes left", ckpt.ErrCorrupt, n, what, len(free), remaining)
	}
	for _, f := range free {
		if !inRange(int(f), n) {
			return fmt.Errorf("%w: core: meta snapshot frees %s slot %d of %d", ckpt.ErrCorrupt, what, f, n)
		}
	}
	return nil
}

func inRange(i, n int) bool { return i >= 0 && i < n }

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

	cores := len(m.hist)
	nl := dec.Int()
	m.freeLook = dec.I32s()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := checkSlots("lookup", nl, m.freeLook, dec.Remaining(), lookupRecBytes); err != nil {
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
			return fmt.Errorf("%w: core: lookup record index %d out of range %d", ckpt.ErrCorrupt, i, nl)
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
		if !inRange(rec.core, cores) || !inRange(rec.cur.Core, cores) {
			return fmt.Errorf("%w: core: lookup record %d issued by core %d with a cursor on core %d of %d",
				ckpt.ErrCorrupt, i, rec.core, rec.cur.Core, cores)
		}
		rec.done = lookupDoneOf(rec.core)
	}

	nr := dec.Int()
	m.freeRead = dec.I32s()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := checkSlots("read", nr, m.freeRead, dec.Remaining(), readRecBytes); err != nil {
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
			return fmt.Errorf("%w: core: read record index %d out of range %d", ckpt.ErrCorrupt, i, nr)
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
		if !inRange(rec.core, cores) || !inRange(rec.eng, cores) {
			return fmt.Errorf("%w: core: read record %d issued by core %d with a cursor on core %d of %d",
				ckpt.ErrCorrupt, i, rec.eng, rec.core, cores)
		}
		rec.done = readDoneOf(rec.eng, rec.seq)
	}
	return dec.Err()
}
