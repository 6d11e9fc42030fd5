package cache

import (
	"fmt"

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
// identically configured cache.
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
		return fmt.Errorf("cache %s: snapshot has %d tags, want %d", c.cfg.Name, len(tags), len(c.tags))
	}
	c.tags = tags
	if c.packed {
		validM := dec.U32s()
		dirtyM := dec.U32s()
		lruW := dec.U64s()
		if err := dec.Err(); err != nil {
			return err
		}
		if len(validM) != c.sets || len(dirtyM) != c.sets || len(lruW) != c.sets {
			return fmt.Errorf("cache %s: corrupt packed snapshot", c.cfg.Name)
		}
		c.validM, c.dirtyM, c.lruW = validM, dirtyM, lruW
	} else {
		n := int(dec.U64())
		if err := dec.Err(); err != nil {
			return err
		}
		if n != len(c.valid) {
			return fmt.Errorf("cache %s: snapshot has %d ways, want %d", c.cfg.Name, n, len(c.valid))
		}
		for i := 0; i < n; i++ {
			c.valid[i] = dec.Bool()
			c.dirty[i] = dec.Bool()
			c.lru[i] = dec.U8()
		}
	}
	c.stats.Hits = dec.U64()
	c.stats.Misses = dec.U64()
	c.stats.Fills = dec.U64()
	c.stats.Writebacks = dec.U64()
	return dec.Err()
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
