package core

import (
	"bytes"
	"testing"
	"testing/quick"

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

// TestIndexTableMatchesReferenceLRU compares one bucket against a simple
// reference model under random updates.
func TestIndexTableMatchesReferenceLRU(t *testing.T) {
	f := func(ops []uint8) bool {
		idx := NewIndexTable(1, 4)
		type ent struct{ blk, ptr uint64 }
		var ref []ent // MRU first
		refUpdate := func(blk, ptr uint64) {
			for i := range ref {
				if ref[i].blk == blk {
					e := ref[i]
					e.ptr = ptr
					copy(ref[1:i+1], ref[:i])
					ref[0] = e
					return
				}
			}
			if len(ref) < 4 {
				ref = append(ref, ent{})
			}
			copy(ref[1:], ref[:len(ref)-1])
			ref[0] = ent{blk, ptr}
		}
		for i, op := range ops {
			blk := uint64(op % 8)
			idx.Update(blk, uint64(i))
			refUpdate(blk, uint64(i))
		}
		for _, e := range ref {
			ptr, ok := idx.Lookup(e.blk)
			if !ok || ptr != e.ptr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBufferLRUAndDirty(t *testing.T) {
	b := newBucketBuffer(2)
	if b.touch(1, false) {
		t.Fatal("empty buffer hit")
	}
	if evicted := b.insert(1, false); evicted {
		t.Fatal("insert into empty evicted")
	}
	if !b.touch(1, true) {
		t.Fatal("resident bucket missed")
	}
	b.insert(2, false)
	// Order is [2 MRU, 1]; refresh 1 so 2 becomes the LRU.
	b.touch(1, false)
	// Insert 3: evicts LRU (2, clean).
	if evicted := b.insert(3, false); evicted {
		t.Fatal("clean eviction reported dirty")
	}
	if b.touch(2, false) {
		t.Fatal("bucket 2 should be evicted")
	}
	// 1 is dirty; evicting it must report the write-back.
	if evicted := b.insert(4, false); !evicted {
		t.Fatal("dirty eviction not reported")
	}
	if b.Writebacks != 1 {
		t.Fatalf("writebacks = %d", b.Writebacks)
	}
}

func TestBucketBufferCapacity(t *testing.T) {
	b := newBucketBuffer(128)
	for i := uint32(0); i < 1000; i++ {
		b.insert(i, i%2 == 0)
	}
	if b.len() != 128 {
		t.Fatalf("len = %d", b.len())
	}
	// The resident buckets are the last 128 inserted, half of them even.
	if n := b.flushDirtyCount(); n != 64 {
		t.Fatalf("dirty count = %d, want 64", n)
	}
}

// TestBucketBufferSnapshot: a snapshot restores to the same LRU order
// and dirty bits, and a snapshot listing a bucket twice is rejected.
func TestBucketBufferSnapshot(t *testing.T) {
	b := newBucketBuffer(4)
	for _, id := range []uint32{7, 3, 9, 3, 11, 5} {
		b.insert(id, id%3 == 0)
	}
	enc := ckpt.NewEncoder()
	b.snapshot(enc)
	r := newBucketBuffer(4)
	if err := r.restore(ckpt.NewSnapshot(enc).Decoder()); err != nil {
		t.Fatal(err)
	}
	again := ckpt.NewEncoder()
	r.snapshot(again)
	if !bytes.Equal(again.Payload(), enc.Payload()) || r.flushDirtyCount() != b.flushDirtyCount() {
		t.Fatal("restored bucket buffer differs from the original")
	}

	dup := ckpt.NewEncoder()
	dup.Section("core.bucketBuffer")
	dup.Int(4)
	dup.Int(2)
	for range 2 {
		dup.U32(7)
		dup.Bool(false)
	}
	dup.U64(0)
	dup.U64(0)
	dup.U64(0)
	if err := newBucketBuffer(4).restore(ckpt.NewSnapshot(dup).Decoder()); err == nil {
		t.Fatal("snapshot repeating a bucket accepted")
	}
}

func TestBucketBufferReinsertRefreshes(t *testing.T) {
	b := newBucketBuffer(2)
	b.insert(1, false)
	b.insert(2, false)
	b.insert(1, true) // refresh + dirty, no eviction
	if b.len() != 2 {
		t.Fatalf("len = %d", b.len())
	}
	b.insert(3, false) // evicts 2, clean
	if b.touch(2, false) {
		t.Fatal("2 should be evicted")
	}
	if !b.touch(1, false) {
		t.Fatal("refreshed 1 evicted")
	}
}
