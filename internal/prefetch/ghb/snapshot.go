package ghb

import (
	"fmt"
	"slices"

	"stms/internal/ckpt"
)

// snapshot serializes the LRU index in recency order (LRU first), so
// restore's pushFront sequence reproduces the exact list.
func (l *lruIndex) snapshot(enc *ckpt.Encoder) {
	enc.Section("ghb.lruIndex")
	enc.U64(l.cap)
	enc.Int(l.m.Len())
	for i := l.tail; i != nilNode; i = l.nodes[i].prev {
		enc.U64(l.nodes[i].key)
		enc.U64(l.nodes[i].val)
	}
	enc.U64(l.evictions)
}

func (l *lruIndex) restore(dec *ckpt.Decoder) error {
	dec.Section("ghb.lruIndex")
	capacity := dec.U64()
	count := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != l.cap {
		return fmt.Errorf("ghb: index snapshot capacity %d does not match %d", capacity, l.cap)
	}
	if l.m.Len() != 0 {
		return fmt.Errorf("ghb: restore into non-empty index")
	}
	if count < 0 || uint64(count) > capacity {
		return fmt.Errorf("%w: ghb: index snapshot holds %d entries over capacity %d", ckpt.ErrCorrupt, count, capacity)
	}
	for k := 0; k < count; k++ {
		key := dec.U64()
		val := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		l.nodes = append(l.nodes, lruNode{key: key, val: val, prev: nilNode, next: nilNode})
		i := int32(len(l.nodes) - 1)
		l.m.Put(key, i)
		l.pushFront(i)
	}
	if l.m.Len() != count {
		return fmt.Errorf("%w: ghb: index snapshot repeats a key", ckpt.ErrCorrupt)
	}
	l.evictions = dec.U64()
	return dec.Err()
}

// snapshot writes the capped index's section layout — capacity (0),
// count, (key, value) pairs, evictions (none) — listing the pairs in key
// order: the index keeps no recency to list them by, and a canonical
// order makes the bytes a function of its contents alone.
func (x *flatIndex) snapshot(enc *ckpt.Encoder) {
	enc.Section("ghb.lruIndex")
	enc.U64(0)
	enc.Int(x.len())
	keys := make([]uint64, 0, x.len())
	for k := range x.m.All() {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v, _ := x.get(k)
		enc.U64(k)
		enc.U64(v)
	}
	enc.U64(0) // evictions
}

// restore accepts the pairs in any order, so it also reads checkpoints
// that listed an unbounded index in recency order.
func (x *flatIndex) restore(dec *ckpt.Decoder) error {
	dec.Section("ghb.lruIndex")
	capacity := dec.U64()
	count := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != 0 {
		return fmt.Errorf("ghb: index snapshot capacity %d does not match unbounded", capacity)
	}
	if x.len() != 0 {
		return fmt.Errorf("ghb: restore into non-empty index")
	}
	for k := 0; k < count; k++ {
		key := dec.U64()
		val := dec.U64()
		if err := dec.Err(); err != nil {
			return err
		}
		x.put(key, val)
	}
	if x.len() != count {
		return fmt.Errorf("%w: ghb: index snapshot repeats a key", ckpt.ErrCorrupt)
	}
	if ev := dec.U64(); ev != 0 {
		return fmt.Errorf("%w: ghb: unbounded index snapshot records %d evictions", ckpt.ErrCorrupt, ev)
	}
	return dec.Err()
}

// Snapshot serializes the idealized backend: every core's history, the
// LRU index, and the counters. The backend is fully synchronous, so
// there are no in-flight operations to capture.
func (m *Meta) Snapshot(enc *ckpt.Encoder) error {
	enc.Section("ghb.Meta")
	enc.Int(len(m.hist))
	for _, h := range m.hist {
		h.Snapshot(enc)
	}
	m.idx.snapshot(enc)
	enc.U64(m.Records)
	enc.U64(m.IndexStale)
	enc.U64(m.IndexHits)
	enc.U64(m.IndexMisses)
	return nil
}

// Restore rebuilds the backend from a Snapshot. The Meta must be
// freshly constructed with the same configuration.
func (m *Meta) Restore(dec *ckpt.Decoder) error {
	dec.Section("ghb.Meta")
	nh := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nh != len(m.hist) {
		return fmt.Errorf("ghb: snapshot has %d histories, want %d", nh, len(m.hist))
	}
	for _, h := range m.hist {
		if err := h.Restore(dec); err != nil {
			return err
		}
	}
	if err := m.idx.restore(dec); err != nil {
		return err
	}
	m.Records = dec.U64()
	m.IndexStale = dec.U64()
	m.IndexHits = dec.U64()
	m.IndexMisses = dec.U64()
	return dec.Err()
}
