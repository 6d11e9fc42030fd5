package cache

import (
	"fmt"
	"slices"

	"stms/internal/ckpt"
	"stms/internal/mem"
)

// Snapshot serializes the cache's content state: tags, validity,
// dirtiness, LRU order (whichever representation is live) and stats.
// Geometry is not serialized — Restore targets a cache built from the
// same Config, and cross-checks the dimensions it can.
func (c *Cache) Snapshot(enc *ckpt.Encoder) {
	enc.Section("cache.Cache")
	enc.Int(c.sets)
	enc.Int(c.assoc)
	enc.Bool(c.packed)
	enc.U64s(c.tags)
	if c.packed {
		enc.U32s(c.validM)
		enc.U32s(c.dirtyM)
		enc.U64s(c.lruW)
	} else {
		enc.U64(uint64(len(c.valid)))
		for i := range c.valid {
			enc.Bool(c.valid[i])
			enc.Bool(c.dirty[i])
			enc.U8(c.lru[i])
		}
	}
	enc.U64(c.stats.Hits)
	enc.U64(c.stats.Misses)
	enc.U64(c.stats.Fills)
	enc.U64(c.stats.Writebacks)
}

// Restore rebuilds cache content from a Snapshot taken on an
// identically configured cache. Impossible content is rejected with
// ckpt.ErrCorrupt before any state changes: an LRU order that is not a
// permutation of the set's ways (packed: unused high nibbles must be
// zero), a validity or dirty bit above the associativity, an invalid way
// not holding invalidTag, a valid way holding a block of another set (or
// invalidTag), or one block in two ways of a set.
func (c *Cache) Restore(dec *ckpt.Decoder) error {
	dec.Section("cache.Cache")
	sets := dec.Int()
	assoc := dec.Int()
	packed := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if sets != c.sets || assoc != c.assoc || packed != c.packed {
		return fmt.Errorf("cache %s: snapshot geometry %dx%d (packed=%v) does not match %dx%d (packed=%v)",
			c.cfg.Name, sets, assoc, packed, c.sets, c.assoc, c.packed)
	}
	tags := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(tags) != len(c.tags) {
		return fmt.Errorf("%w: cache %s: snapshot has %d tags, want %d", ckpt.ErrCorrupt, c.cfg.Name, len(tags), len(c.tags))
	}
	r := *c
	r.tags = tags
	if c.packed {
		r.validM = dec.U32s()
		r.dirtyM = dec.U32s()
		r.lruW = dec.U64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(r.validM) != c.sets || len(r.dirtyM) != c.sets || len(r.lruW) != c.sets {
			return fmt.Errorf("%w: cache %s: packed snapshot has %d, %d and %d set words for %d sets",
				ckpt.ErrCorrupt, c.cfg.Name, len(r.validM), len(r.dirtyM), len(r.lruW), c.sets)
		}
	} else {
		n := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		if n != uint64(len(c.valid)) {
			return fmt.Errorf("%w: cache %s: snapshot has %d ways, want %d", ckpt.ErrCorrupt, c.cfg.Name, n, len(c.valid))
		}
		r.valid, r.dirty, r.lru = make([]bool, n), make([]bool, n), make([]uint8, n)
		for i := range r.valid {
			r.valid[i] = dec.Bool()
			r.dirty[i] = dec.Bool()
			r.lru[i] = dec.U8()
		}
	}
	r.stats.Hits = dec.U64()
	r.stats.Misses = dec.U64()
	r.stats.Fills = dec.U64()
	r.stats.Writebacks = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	for set := range r.sets {
		if err := r.checkSet(set); err != nil {
			return fmt.Errorf("%w: cache %s: snapshot set %d %s", ckpt.ErrCorrupt, c.cfg.Name, set, err)
		}
	}
	*c = r
	return nil
}

// checkSet reports what makes one restored set impossible, or nil.
func (c *Cache) checkSet(set int) error {
	var order [256]bool // way ids seen in the LRU order
	if c.packed {
		if extra := (c.validM[set] | c.dirtyM[set]) &^ c.waysMask; extra != 0 {
			return fmt.Errorf("has validity or dirty bits %#x above %d ways", extra, c.assoc)
		}
		w := c.lruW[set]
		for i := range c.assoc {
			order[w>>(4*i)&0xF] = true
		}
		if c.assoc < 16 && w>>(4*c.assoc) != 0 {
			return fmt.Errorf("LRU word %#x has nibbles above %d ways", w, c.assoc)
		}
	} else {
		for _, way := range c.lru[set*c.assoc : (set+1)*c.assoc] {
			order[way] = true
		}
	}
	for way := range c.assoc {
		if !order[way] {
			return fmt.Errorf("LRU order is not a permutation of %d ways: way %d is missing", c.assoc, way)
		}
	}
	tags := c.tags[set*c.assoc : (set+1)*c.assoc]
	for way, tag := range tags {
		switch valid := c.isValid(set, way); {
		case !valid && tag != invalidTag:
			return fmt.Errorf("invalid way %d holds block %#x", way, tag)
		case valid && (tag == invalidTag || c.setOf(tag) != set):
			return fmt.Errorf("way %d holds block %#x of set %d", way, tag, c.setOf(tag))
		case valid && slices.Contains(tags[:way], tag):
			return fmt.Errorf("holds block %#x in two ways", tag)
		}
	}
	return nil
}

// Snapshot serializes the MSHR file verbatim: the entry and waiter
// arrays with their free lists, the block index, and the counters. The
// onDone callback is construction-time wiring and is not serialized.
func (m *MSHR) Snapshot(enc *ckpt.Encoder) {
	enc.Section("cache.MSHR")
	enc.Int(m.cap)
	m.idx.Snapshot(enc)
	enc.U64(uint64(len(m.entries)))
	for _, e := range m.entries {
		enc.U32(uint32(e.head))
		enc.U32(uint32(e.tail))
	}
	enc.I32s(m.freeEnt)
	enc.U64(uint64(len(m.waiters)))
	for _, w := range m.waiters {
		enc.U64(w.a)
		enc.U64(w.b)
		enc.U32(uint32(w.next))
	}
	enc.U32(uint32(m.freeW))
	enc.U64(m.Merged)
	enc.U64(m.Rejected)
}

// Restore rebuilds the MSHR file from a Snapshot taken on a file of the
// same capacity (onDone stays as constructed). A snapshot with more
// entries than the capacity, more waiters than its bytes can hold, an
// entry, free-list or waiter link outside its array, or a live waiter
// list that loops is rejected with ckpt.ErrCorrupt before any state
// changes.
func (m *MSHR) Restore(dec *ckpt.Decoder) error {
	dec.Section("cache.MSHR")
	capacity := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != m.cap {
		return fmt.Errorf("cache: MSHR snapshot capacity %d does not match %d", capacity, m.cap)
	}
	idx := mem.NewBlockMap(0)
	if err := idx.Restore(dec); err != nil {
		return err
	}
	ne := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if ne > uint64(m.cap) {
		return fmt.Errorf("%w: cache: MSHR snapshot has %d entries, capacity %d", ckpt.ErrCorrupt, ne, m.cap)
	}
	entries := make([]mshrEntry, ne)
	for i := range entries {
		entries[i].head = int32(dec.U32())
		entries[i].tail = int32(dec.U32())
	}
	freeEnt := dec.I32s()
	nw := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	const waiterBytes = 8 + 8 + 4
	if nw > uint64(dec.Remaining()/waiterBytes) {
		return fmt.Errorf("%w: cache: MSHR snapshot has %d waiters in %d bytes", ckpt.ErrCorrupt, nw, dec.Remaining())
	}
	waiters := make([]mshrWaiter, nw)
	for i := range waiters {
		waiters[i].a = dec.U64()
		waiters[i].b = dec.U64()
		waiters[i].next = int32(dec.U32())
	}
	freeW := int32(dec.U32())
	merged := dec.U64()
	rejected := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	// Links may be mshrNil or name a slot of their array.
	link := func(l int32, n int) bool { return l == mshrNil || l >= 0 && int(l) < n }
	for _, e := range entries {
		if !link(e.head, len(waiters)) || !link(e.tail, len(waiters)) {
			return fmt.Errorf("%w: cache: MSHR snapshot waiter list %d..%d outside %d waiters", ckpt.ErrCorrupt, e.head, e.tail, len(waiters))
		}
	}
	for _, w := range waiters {
		if !link(w.next, len(waiters)) {
			return fmt.Errorf("%w: cache: MSHR snapshot waiter link %d outside %d waiters", ckpt.ErrCorrupt, w.next, len(waiters))
		}
	}
	if !link(freeW, len(waiters)) {
		return fmt.Errorf("%w: cache: MSHR snapshot waiter free list %d outside %d waiters", ckpt.ErrCorrupt, freeW, len(waiters))
	}
	if idx.Len()+len(freeEnt) > len(entries) {
		return fmt.Errorf("%w: cache: MSHR snapshot has %d live and %d free of %d entries", ckpt.ErrCorrupt, idx.Len(), len(freeEnt), len(entries))
	}
	for _, i := range freeEnt {
		if i < 0 || int(i) >= len(entries) {
			return fmt.Errorf("%w: cache: MSHR snapshot free entry %d outside %d entries", ckpt.ErrCorrupt, i, len(entries))
		}
	}
	for _, i := range idx.All() {
		if i < 0 || int(i) >= len(entries) {
			return fmt.Errorf("%w: cache: MSHR snapshot maps a block to entry %d of %d", ckpt.ErrCorrupt, i, len(entries))
		}
		// Complete walks a live entry's list to mshrNil: a loop would hang it.
		n := 0
		for w := entries[i].head; w != mshrNil; w = waiters[w].next {
			if n++; n > len(waiters) {
				return fmt.Errorf("%w: cache: MSHR snapshot waiter list of entry %d loops", ckpt.ErrCorrupt, i)
			}
		}
	}
	m.idx, m.entries, m.freeEnt, m.waiters, m.freeW = idx, entries, freeEnt, waiters, freeW
	m.Merged, m.Rejected = merged, rejected
	return nil
}
