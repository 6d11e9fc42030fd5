package mem

import (
	"bytes"
	"errors"
	"maps"
	"testing"

	"stms/internal/ckpt"
)

func blockMapSnapshot(keys []uint64, vals []int32, n int) *ckpt.Decoder {
	enc := ckpt.NewEncoder()
	enc.Section("mem.BlockMap")
	enc.U64s(keys)
	enc.I32s(vals)
	enc.Int(n)
	return ckpt.NewDecoder(enc.Payload())
}

func TestBlockMapSnapshotRoundTrip(t *testing.T) {
	m := NewBlockMap(8)
	for k := uint64(0); k < 8; k++ {
		m.Put(k*977, int32(k))
	}
	m.Delete(3 * 977)
	enc := ckpt.NewEncoder()
	m.Snapshot(enc)
	r := NewBlockMap(0)
	if err := r.Restore(ckpt.NewDecoder(enc.Payload())); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		v, ok := r.Get(k * 977)
		if want := k != 3; ok != want || (ok && v != int32(k)) {
			t.Fatalf("Get(%d) = %d, %v after restore", k*977, v, ok)
		}
	}
	if r.Len() != 7 || r.Contains(99) {
		t.Fatalf("restored map: len %d", r.Len())
	}
}

// TestBlockMapRestoreRejectsCorruptTables: each table below decodes
// cleanly but could not come from Put and Delete. The full one would make
// a lookup of a missing key probe forever.
func TestBlockMapRestoreRejectsCorruptTables(t *testing.T) {
	var probe BlockMap
	probe.mask = 7
	k := uint64(12345)
	home := probe.home(k)
	slots := func(at map[uint64]uint64) []uint64 {
		keys := make([]uint64, 8)
		for i := range keys {
			keys[i] = emptyKey
		}
		for s, key := range at {
			keys[s&7] = key
		}
		return keys
	}
	vals := make([]int32, 8)
	for name, c := range map[string]struct {
		keys []uint64
		vals []int32
		n    int
	}{
		"full":             {[]uint64{1, 2, 3, 4}, []int32{0, 0, 0, 0}, 4},
		"over half":        {[]uint64{1, 2, 3, emptyKey}, []int32{0, 0, 0, 0}, 3},
		"count above keys": {slots(map[uint64]uint64{home: k}), vals, 2},
		"count below keys": {slots(map[uint64]uint64{home: k}), vals, 0},
		"full, count low":  {[]uint64{1, 2, 3, 4}, []int32{0, 0, 0, 0}, 2},
		"duplicate key":    {slots(map[uint64]uint64{home: k, home + 1: k}), vals, 2},
		"unreachable key":  {slots(map[uint64]uint64{home + 2: k}), vals, 1},
		"not a power of 2": {[]uint64{emptyKey, emptyKey, emptyKey}, []int32{0, 0, 0}, 0},
		"vals mismatch":    {slots(nil), vals[:4], 0},
	} {
		m := NewBlockMap(0)
		err := m.Restore(blockMapSnapshot(c.keys, c.vals, c.n))
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", name, err)
		}
		if m.Len() != 0 {
			t.Errorf("%s: rejected restore changed the map", name)
		}
	}
}

// TestBlockMapHintLeavesNoTrace: Hint changes neither the contents nor
// the snapshot bytes of an empty, a grown or a full table, for present,
// absent and reserved keys, and allocates nothing.
func TestBlockMapHintLeavesNoTrace(t *testing.T) {
	grown := NewBlockMap(4)
	for k := range uint64(100) {
		grown.Put(k*977, int32(k))
	}
	full := NewBlockMap(8) // 16 slots: the ninth Put grows it
	for k := range uint64(8) {
		full.Put(k*977, int32(k))
	}
	keys := []uint64{0, 977, 5 * 977, 99 * 977, 12345, ^uint64(0)}
	for _, c := range []struct {
		name string
		m    *BlockMap
	}{{"empty", NewBlockMap(0)}, {"grown", grown}, {"full", full}} {
		snap := func() []byte {
			enc := ckpt.NewEncoder()
			c.m.Snapshot(enc)
			return enc.Payload()
		}
		before, contents := snap(), maps.Collect(c.m.All())
		hint := func() {
			for _, k := range keys {
				c.m.Hint(k)
			}
		}
		hint()
		if !maps.Equal(maps.Collect(c.m.All()), contents) || !bytes.Equal(snap(), before) {
			t.Errorf("%s: Hint changed the table", c.name)
		}
		if n := testing.AllocsPerRun(100, hint); n != 0 {
			t.Errorf("%s: %v allocations per Hint pass, want 0", c.name, n)
		}
	}
}
