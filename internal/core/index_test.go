package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"stms/internal/ckpt"
)

func TestIndexTableLookupUpdate(t *testing.T) {
	idx := NewIndexTable(16, 12)
	if _, ok := idx.Lookup(42); ok {
		t.Fatal("empty table hit")
	}
	idx.Update(42, 7)
	ptr, ok := idx.Lookup(42)
	if !ok || ptr != 7 {
		t.Fatalf("lookup = %d,%v", ptr, ok)
	}
	idx.Update(42, 9)
	ptr, _ = idx.Lookup(42)
	if ptr != 9 {
		t.Fatalf("update did not overwrite: %d", ptr)
	}
	if idx.Len() != 1 {
		t.Fatalf("len = %d", idx.Len())
	}
}

func TestIndexTableBucketLRU(t *testing.T) {
	// One bucket, 2 ways: the LRU entry is replaced.
	idx := NewIndexTable(1, 2)
	idx.Update(1, 10)
	idx.Update(2, 20)
	idx.Update(3, 30) // evicts 1
	if _, ok := idx.Lookup(1); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := idx.Lookup(2); !ok {
		t.Fatal("entry 2 lost")
	}
	// Updating 2 makes it MRU; inserting 4 evicts 3.
	idx.Update(2, 21)
	idx.Update(4, 40)
	if _, ok := idx.Lookup(3); ok {
		t.Fatal("entry 3 should have been evicted")
	}
	if _, ok := idx.Lookup(2); !ok {
		t.Fatal("MRU entry 2 evicted")
	}
	if idx.Evictions != 2 {
		t.Fatalf("evictions = %d", idx.Evictions)
	}
}

func TestIndexTableLookupDoesNotReorder(t *testing.T) {
	idx := NewIndexTable(1, 2)
	idx.Update(1, 10)
	idx.Update(2, 20)
	// Lookup of 1 must NOT refresh it (lookups don't rewrite the bucket).
	idx.Lookup(1)
	idx.Update(3, 30) // evicts LRU = 1
	if _, ok := idx.Lookup(1); ok {
		t.Fatal("lookup reordered the bucket")
	}
}

func TestIndexTableCapacity(t *testing.T) {
	idx := NewIndexTable(8, 12)
	for i := uint64(0); i < 10_000; i++ {
		idx.Update(i, i)
	}
	if idx.Len() > 8*12 {
		t.Fatalf("len %d exceeds capacity", idx.Len())
	}
	if idx.SizeBytes() != 8*64 {
		t.Fatalf("size = %d", idx.SizeBytes())
	}
}

func TestIndexTableBucketOfStable(t *testing.T) {
	idx := NewIndexTable(1024, 12)
	f := func(blk uint64) bool {
		b := idx.BucketOf(blk)
		return b == idx.BucketOf(blk) && int(b) < idx.Buckets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexTableSpreads(t *testing.T) {
	idx := NewIndexTable(256, 12)
	counts := make(map[uint32]int)
	for i := uint64(0); i < 25600; i++ {
		counts[idx.BucketOf(i*64+7)]++
	}
	// Multiplicative hashing over sequential blocks should touch most
	// buckets without gross hot spots.
	if len(counts) < 200 {
		t.Fatalf("only %d buckets used", len(counts))
	}
	for b, c := range counts {
		if c > 400 {
			t.Fatalf("bucket %d received %d of 25600", b, c)
		}
	}
}

func TestIndexTableGeometryPanics(t *testing.T) {
	for _, bad := range []int{0, 3, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndexTable(%d, 12) did not panic", bad)
				}
			}()
			NewIndexTable(bad, 12)
		}()
	}
}

// refIndex is a dense reference model of IndexTable: every bucket holds
// ways entries MRU first, as the table's snapshot format lays them out.
type refIndex struct {
	ways int
	t    *IndexTable // hashes keys to buckets (BucketOf)
	ents [][]indexEntry
}

func newRefIndex(buckets, ways int) *refIndex {
	return &refIndex{ways: ways, t: NewIndexTable(buckets, ways), ents: make([][]indexEntry, buckets)}
}

func (r *refIndex) update(blk, ptr uint64) {
	b := r.ents[r.t.BucketOf(blk)]
	i := slices.IndexFunc(b, func(e indexEntry) bool { return e.blk == blk })
	if i < 0 {
		if len(b) < r.ways {
			b = append(b, indexEntry{})
		}
		i = len(b) - 1
	}
	copy(b[1:i+1], b[:i])
	b[0] = indexEntry{blk, ptr}
	r.ents[r.t.BucketOf(blk)] = b
}

// snapshot encodes r in the dense format with the given counters.
func (r *refIndex) snapshot(t *IndexTable) []byte {
	keys := make([]uint64, len(r.ents)*r.ways)
	ptrs := make([]uint64, len(keys))
	for bi, b := range r.ents {
		for w, e := range b {
			keys[bi*r.ways+w] = e.blk
			ptrs[bi*r.ways+w] = e.ptr
		}
	}
	enc := ckpt.NewEncoder()
	enc.Section("core.IndexTable")
	enc.Int(r.ways)
	enc.Int(len(r.ents))
	enc.U64s(keys)
	enc.U64s(ptrs)
	enc.U64(uint64(len(r.ents)))
	for _, b := range r.ents {
		enc.U8(uint8(len(b)))
	}
	for _, c := range []uint64{t.Hits, t.Misses, t.Updates, t.Inserts, t.Evictions} {
		enc.U64(c)
	}
	return enc.Payload()
}

func snapshotBytes(t *IndexTable) []byte {
	enc := ckpt.NewEncoder()
	t.Snapshot(enc)
	return enc.Payload()
}

// TestIndexTableMatchesReferenceLRU drives tables of 1 to 12 ways with
// random updates over twice as many keys as the table holds, so buckets
// fill, cross from the head line into the overflow chunk and evict, and
// checks every bucket's contents and order against the dense model.
func TestIndexTableMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 12} {
		for _, buckets := range []int{1, 4} {
			f := func(seed uint64) bool {
				idx := NewIndexTable(buckets, ways)
				ref := newRefIndex(buckets, ways)
				rng := rand.New(rand.NewPCG(seed, 0))
				for i := range 20 * ways * buckets {
					blk := rng.Uint64N(uint64(2*ways*buckets + 1))
					if _, ok := idx.Lookup(blk); ok != slices.ContainsFunc(ref.ents[idx.BucketOf(blk)], func(e indexEntry) bool { return e.blk == blk }) {
						return false
					}
					idx.Update(blk, uint64(i))
					ref.update(blk, uint64(i))
				}
				n := 0
				for bi, want := range ref.ents {
					n += len(want)
					if got := idx.bucketContents(uint32(bi)); !slices.Equal(got, want) {
						t.Logf("%dx%d bucket %d: got %v, want %v", buckets, ways, bi, got, want)
						return false
					}
					for _, e := range want {
						if ptr, ok := idx.Lookup(e.blk); !ok || ptr != e.ptr {
							return false
						}
					}
				}
				return idx.Len() == n && idx.Inserts-idx.Evictions == uint64(n) && idx.Evictions > 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatalf("%d buckets x %d ways: %v", buckets, ways, err)
			}
		}
	}
}

// TestIndexTableSnapshotDense checks that a snapshot is byte-for-byte the
// dense full-capacity encoding, and that restoring one mid-sequence and
// continuing gives the same table as never stopping.
func TestIndexTableSnapshotDense(t *testing.T) {
	for _, ways := range []int{2, 3, 4, 12} {
		const buckets = 8
		idx := NewIndexTable(buckets, ways)
		ref := newRefIndex(buckets, ways)
		rng := rand.New(rand.NewPCG(uint64(ways), 1))
		step := func(i int) {
			blk := rng.Uint64N(uint64(3 * ways * buckets))
			idx.Lookup(blk)
			idx.Update(blk, uint64(i))
			ref.update(blk, uint64(i))
		}
		for i := range 2000 {
			step(i)
			if i%250 != 0 {
				continue
			}
			got := snapshotBytes(idx)
			if want := ref.snapshot(idx); !bytes.Equal(got, want) {
				t.Fatalf("ways %d op %d: snapshot differs from the dense encoding", ways, i)
			}
			r := NewIndexTable(buckets, ways)
			if err := r.Restore(ckpt.NewDecoder(got)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snapshotBytes(r), got) {
				t.Fatalf("ways %d op %d: restore does not round-trip", ways, i)
			}
			idx = r // continue from the restored table
		}
		if !bytes.Equal(snapshotBytes(idx), ref.snapshot(idx)) {
			t.Fatalf("ways %d: restored table diverged from the model", ways)
		}
	}
}

// TestIndexTableRestoreRejectsCorrupt: a snapshot that decodes but
// describes an impossible table fails with ckpt.ErrCorrupt instead of
// restoring a table that panics on its next use.
func TestIndexTableRestoreRejectsCorrupt(t *testing.T) {
	good := NewIndexTable(2, 2)
	good.Update(1, 10)
	good.Update(2, 20)
	base := snapshotBytes(good)
	// The length bytes sit just before the five counters.
	lenAt := len(base) - 5*8 - 2
	cases := []struct {
		name  string
		patch func([]byte) []byte
	}{
		{"length above ways", func(b []byte) []byte { b[lenAt] = 200; return b }},
		{"length one above ways", func(b []byte) []byte { b[lenAt+1] = 3; return b }},
		{"length count mismatch", func(b []byte) []byte { b[lenAt-8] = 3; return b }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := c.patch(bytes.Clone(base))
			r := NewIndexTable(2, 2)
			err := r.Restore(ckpt.NewDecoder(b))
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("Restore = %v, want ckpt.ErrCorrupt", err)
			}
		})
	}
}

// TestIndexTableFootprint: host storage follows occupancy. A table
// modelling an 8 MB index (131072 buckets) that holds 1000 entries
// allocates its 64-byte heads and at most one overflow page.
func TestIndexTableFootprint(t *testing.T) {
	if s := unsafe.Sizeof(bucketHead{}); s != 64 {
		t.Fatalf("bucketHead is %d bytes, want one 64-byte line", s)
	}
	const buckets = 131072
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := NewIndexTable(buckets, 12)
	for i := range uint64(1000) {
		idx.Update(i*0x9e37, i)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(idx)
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(buckets*64 + chunkPage*16 + 1024) // heads, one page, the table itself
	if idx.Len() != 1000 || got >= limit {
		t.Fatalf("table of %d entries allocated %d bytes, want < %d", idx.Len(), got, limit)
	}
	t.Logf("%d entries: %d bytes allocated (%d bytes modelled)", idx.Len(), got, idx.SizeBytes())
}

// TestIndexTableFullPages fills every bucket of a 1024x12 table, so 1024
// nine-entry chunks fill three pages (455 to a page, none straddling a
// page boundary), and checks every bucket against the dense model.
func TestIndexTableFullPages(t *testing.T) {
	const buckets, ways = 1024, 12
	idx := NewIndexTable(buckets, ways)
	ref := newRefIndex(buckets, ways)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range 3 * buckets * ways {
		blk := rng.Uint64N(4 * buckets * ways)
		idx.Update(blk, uint64(i))
		ref.update(blk, uint64(i))
	}
	if len(idx.pages) != 3 || idx.Len() != buckets*ways {
		t.Fatalf("%d entries in %d pages, want %d in 3", idx.Len(), len(idx.pages), buckets*ways)
	}
	for bi, want := range ref.ents {
		if got := idx.bucketContents(uint32(bi)); !slices.Equal(got, want) {
			t.Fatalf("bucket %d: got %v, want %v", bi, got, want)
		}
	}
}

// BenchmarkIndexTable times one Lookup and one Update on a sparse table
// modelling the Figure 5 8 MB index and on a full 64 KB one.
func BenchmarkIndexTable(b *testing.B) {
	for _, c := range []struct {
		name    string
		buckets int
		keys    int // distinct keys in the access stream
	}{
		{"sparse-8MB", 131072, 150_000},
		{"full-64KB", 1024, 3 * 1024 * 12},
	} {
		b.Run(c.name, func(b *testing.B) {
			idx := NewIndexTable(c.buckets, 12)
			rng := rand.New(rand.NewPCG(1, 2))
			stream := make([]uint64, 1<<16)
			for i := range stream {
				stream[i] = rng.Uint64N(uint64(c.keys)) << 6
			}
			for i, blk := range stream {
				idx.Update(blk, uint64(i))
			}
			b.ResetTimer()
			for i := range b.N {
				blk := stream[i&(len(stream)-1)]
				idx.Lookup(blk)
				idx.Update(blk, uint64(i))
			}
		})
	}
}

// TestIndexTableHintLeavesNoTrace: Hint changes neither the head lines
// nor the snapshot bytes of an empty table, one whose buckets have grown
// overflow chunks, or one whose every bucket is full, for present,
// absent and reserved blocks, and allocates nothing.
func TestIndexTableHintLeavesNoTrace(t *testing.T) {
	grown, full := NewIndexTable(64, 12), NewIndexTable(16, 12)
	for blk := range uint64(400) {
		grown.Update(blk, blk+1)
	}
	for blk := range uint64(1000) {
		full.Update(blk, blk+1)
	}
	for bi := range full.Buckets() {
		if n := full.heads[bi].n; n != 12 {
			t.Fatalf("full table: bucket %d holds %d entries, want 12", bi, n)
		}
	}
	blks := []uint64{0, 7, 399, 999, 123456, ^uint64(0)}
	for _, c := range []struct {
		name string
		t    *IndexTable
	}{{"empty", NewIndexTable(1024, 12)}, {"grown", grown}, {"full", full}} {
		before, heads := snapshotBytes(c.t), slices.Clone(c.t.heads)
		hint := func() {
			for _, blk := range blks {
				c.t.Hint(blk)
			}
		}
		hint()
		if !slices.Equal(c.t.heads, heads) || !bytes.Equal(snapshotBytes(c.t), before) {
			t.Errorf("%s: Hint changed the table", c.name)
		}
		if n := testing.AllocsPerRun(100, hint); n != 0 {
			t.Errorf("%s: %v allocations per Hint pass, want 0", c.name, n)
		}
	}
}
