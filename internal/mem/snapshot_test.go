package mem

import (
	"errors"
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
