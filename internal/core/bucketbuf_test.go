package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"stms/internal/ckpt"
)

// newBoundBuffer builds a bucket buffer of capacity buckets bound to a
// fresh table of the given bucket count.
func newBoundBuffer(buckets, capacity int) *bucketBuffer {
	return newBucketBuffer(capacity, NewIndexTable(buckets, 12))
}

func TestBucketBufferLRUAndDirty(t *testing.T) {
	b := newBoundBuffer(8, 2)
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
	b := newBoundBuffer(1024, 128)
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
// and dirty bits.
func TestBucketBufferSnapshot(t *testing.T) {
	b := newBoundBuffer(16, 4)
	for _, id := range []uint32{7, 3, 9, 3, 11, 5} {
		b.insert(id, id%3 == 0)
	}
	enc := ckpt.NewEncoder()
	b.snapshot(enc)
	r := newBoundBuffer(16, 4)
	if err := r.restore(ckpt.NewDecoder(enc.Payload())); err != nil {
		t.Fatal(err)
	}
	again := ckpt.NewEncoder()
	r.snapshot(again)
	if !bytes.Equal(again.Payload(), enc.Payload()) || r.flushDirtyCount() != b.flushDirtyCount() {
		t.Fatal("restored bucket buffer differs from the original")
	}
}

// TestBucketBufferRestoreRejectsCorrupt: a residency list longer than the
// buffer, naming a bucket twice, or naming a bucket past the table's end
// fails with ckpt.ErrCorrupt.
func TestBucketBufferRestoreRejectsCorrupt(t *testing.T) {
	for _, c := range []struct {
		name string
		ids  []uint32
	}{
		{"count above capacity", []uint32{1, 2, 3, 4, 5}},
		{"repeated bucket", []uint32{7, 7}},
		{"bucket out of range", []uint32{3, 16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			enc := ckpt.NewEncoder()
			enc.Section("core.bucketBuffer")
			enc.Int(4)
			enc.Int(len(c.ids))
			for _, id := range c.ids {
				enc.U32(id)
				enc.Bool(false)
			}
			enc.U64(0)
			enc.U64(0)
			enc.U64(0)
			err := newBoundBuffer(16, 4).restore(ckpt.NewDecoder(enc.Payload()))
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("restore = %v, want ckpt.ErrCorrupt", err)
			}
		})
	}
}

func TestBucketBufferReinsertRefreshes(t *testing.T) {
	b := newBoundBuffer(8, 2)
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

// refBucketBuffer is the reference model of the bucket buffer: a slice
// of resident buckets, MRU first, and a map of their dirty bits.
type refBucketBuffer struct {
	cap                      int
	order                    []uint32
	dirty                    map[uint32]bool
	hits, misses, writebacks uint64
}

func (r *refBucketBuffer) refresh(id uint32, dirty bool) bool {
	i := slices.Index(r.order, id)
	if i < 0 {
		return false
	}
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, id)
	r.dirty[id] = r.dirty[id] || dirty
	return true
}

func (r *refBucketBuffer) touch(id uint32, dirty bool) bool {
	if !r.refresh(id, dirty) {
		return false
	}
	r.hits++
	return true
}

func (r *refBucketBuffer) insert(id uint32, dirty bool) (evictedDirty bool) {
	if r.refresh(id, dirty) {
		return false
	}
	r.misses++
	if len(r.order) == r.cap {
		victim := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		evictedDirty = r.dirty[victim]
		delete(r.dirty, victim)
		if evictedDirty {
			r.writebacks++
		}
	}
	r.order = slices.Insert(r.order, 0, id)
	r.dirty[id] = dirty
	return evictedDirty
}

// checkBucketBuffer compares b, and every head's residency field of the
// table it is bound to, against the model.
func checkBucketBuffer(t *testing.T, b *bucketBuffer, ref *refBucketBuffer) {
	t.Helper()
	if b.Hits != ref.hits || b.MissesRead != ref.misses || b.Writebacks != ref.writebacks {
		t.Fatalf("hits/misses/writebacks = %d/%d/%d, want %d/%d/%d",
			b.Hits, b.MissesRead, b.Writebacks, ref.hits, ref.misses, ref.writebacks)
	}
	var dirty uint64
	for _, d := range ref.dirty {
		if d {
			dirty++
		}
	}
	if n := b.flushDirtyCount(); n != dirty {
		t.Fatalf("flushDirtyCount = %d, want %d", n, dirty)
	}
	var order []uint32
	for i := b.head; i != bbNil; i = b.nodes[i].next {
		order = append(order, b.nodes[i].id)
	}
	if !slices.Equal(order, ref.order) {
		t.Fatalf("LRU order %v, want %v", order, ref.order)
	}
	for bi := range b.heads {
		bb := b.heads[bi].bb
		resident := slices.Contains(ref.order, uint32(bi))
		if (bb != 0) != resident || resident && b.nodes[bb-1].id != uint32(bi) {
			t.Fatalf("bucket %d: residency field %d, resident %v", bi, bb, resident)
		}
	}
}

// TestBucketBufferMatchesReferenceLRU drives a Meta's table and bucket
// buffer through random clean and dirty touches and inserts, with table
// updates writing the same head lines in between, and holds the buffer
// to the reference model: counters, dirty count, LRU order, every head's
// residency field (so no eviction leaves a stale one), and a snapshot
// that restores to the same bytes.
func TestBucketBufferMatchesReferenceLRU(t *testing.T) {
	for _, c := range []struct{ buckets, capacity int }{
		{1, 1}, {1, 2},
		{4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5}, {4, 9},
		{1024, 1}, {1024, 128}, {1024, 1024}, {1024, 1025},
	} {
		t.Run(fmt.Sprintf("%dx%d", c.buckets, c.capacity), func(t *testing.T) {
			cfg := Config{Cores: 1, HistoryBytesPerCore: 64 * 1024, IndexBytes: uint64(c.buckets) * 64,
				BucketWays: 12, SampleProb: 1, BucketBufferBytes: c.capacity * 64, Seed: 1}
			m := NewMeta(newFakeEnv(), cfg)
			b := m.bbuf
			ref := &refBucketBuffer{cap: c.capacity, dirty: map[uint32]bool{}}
			rng := rand.New(rand.NewPCG(uint64(c.buckets), uint64(c.capacity)))
			for op := range 4000 {
				id := uint32(rng.IntN(c.buckets))
				dirty := rng.IntN(2) == 0
				switch rng.IntN(3) {
				case 0:
					if got, want := b.touch(id, dirty), ref.touch(id, dirty); got != want {
						t.Fatalf("op %d: touch(%d, %v) = %v, want %v", op, id, dirty, got, want)
					}
				case 1:
					if got, want := b.insert(id, dirty), ref.insert(id, dirty); got != want {
						t.Fatalf("op %d: insert(%d, %v) = %v, want %v", op, id, dirty, got, want)
					}
				case 2:
					m.idx.Update(rng.Uint64N(1<<20)<<6, uint64(op))
				}
				if op%97 == 0 {
					checkBucketBuffer(t, b, ref)
				}
			}
			checkBucketBuffer(t, b, ref)

			enc := ckpt.NewEncoder()
			if err := m.Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			r := NewMeta(newFakeEnv(), cfg)
			if err := r.Restore(ckpt.NewDecoder(enc.Payload()), nil, nil); err != nil {
				t.Fatal(err)
			}
			checkBucketBuffer(t, r.bbuf, ref)
			again := ckpt.NewEncoder()
			if err := r.Snapshot(again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Payload(), enc.Payload()) {
				t.Fatal("snapshot → restore → snapshot changed the bytes")
			}
		})
	}
}
