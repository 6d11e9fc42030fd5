package mem

import (
	"fmt"

	"stms/internal/ckpt"
)

// Snapshot serializes the map's raw table — keys, values, population —
// so Restore reproduces the exact probe layout (slot assignment affects
// nothing observable, but verbatim restoration makes bit-identity a
// non-question).
func (m *BlockMap) Snapshot(enc *ckpt.Encoder) {
	enc.Section("mem.BlockMap")
	enc.U64s(m.keys)
	enc.I32s(m.vals)
	enc.Int(m.n)
}

// Restore rebuilds the map from a Snapshot. The table must be one Put
// and Delete could have built: a power-of-two size at most half full,
// a population matching its occupied slots, every key reachable from
// its home slot without crossing a free slot, and no key twice. Checking
// takes one pass over the table. Anything else is rejected with ckpt.ErrCorrupt, since a full
// table would make a missing-key lookup probe forever.
func (m *BlockMap) Restore(dec *ckpt.Decoder) error {
	dec.Section("mem.BlockMap")
	keys := dec.U64s()
	vals := dec.I32s()
	n := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	size := len(keys)
	if size == 0 || size&(size-1) != 0 || size != len(vals) {
		return fmt.Errorf("%w: mem: BlockMap snapshot has %d keys, %d vals", ckpt.ErrCorrupt, size, len(vals))
	}
	if n < 0 || 2*n > size {
		return fmt.Errorf("%w: mem: BlockMap snapshot population %d over half of %d slots", ckpt.ErrCorrupt, n, size)
	}
	used := 0
	for _, k := range keys {
		if k != emptyKey {
			used++
		}
	}
	if used != n {
		return fmt.Errorf("%w: mem: BlockMap snapshot population %d, %d occupied slots", ckpt.ErrCorrupt, n, used)
	}
	// Walk the table once, starting after a free slot (at most half are
	// full): a key is reachable iff its home lies in the run of occupied
	// slots that ends at it.
	t := BlockMap{keys: keys, vals: vals, n: n, mask: uint64(size - 1)}
	free := uint64(0)
	for keys[free] != emptyKey {
		free++
	}
	seen := NewBlockMap(n)
	run := uint64(0)
	for j := uint64(1); j <= t.mask; j++ {
		s := (free + j) & t.mask
		k := keys[s]
		if k == emptyKey {
			run = 0
			continue
		}
		if run++; (s-t.home(k))&t.mask >= run {
			return fmt.Errorf("%w: mem: BlockMap snapshot key %d in slot %d is unreachable", ckpt.ErrCorrupt, k, s)
		}
		if seen.Contains(k) {
			return fmt.Errorf("%w: mem: BlockMap snapshot repeats key %d", ckpt.ErrCorrupt, k)
		}
		seen.Put(k, 0)
	}
	*m = t
	return nil
}
