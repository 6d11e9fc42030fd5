// Package core implements Sampled Temporal Memory Streaming (STMS), the
// paper's contribution: an address-correlating prefetcher whose predictor
// meta-data lives entirely in main memory, made practical by
//
//   - hash-based lookup (§4.3): the index table is a bucketized
//     probabilistic hash table in main memory. A bucket is one 64-byte
//     memory block holding up to 12 {address, history pointer} entries in
//     LRU order, so any lookup costs exactly one memory access;
//   - probabilistic update (§4.4): each potential index update is applied
//     with probability p (default 1/8), making index-maintenance
//     bandwidth proportional to p with minimal coverage loss;
//   - split index/history tables (§4.5): one lookup yields an arbitrarily
//     long temporal stream read line-by-line from a per-core circular
//     history buffer, amortizing the off-chip round-trips.
//
// On chip, STMS needs only each core's prefetch buffer and address queue
// (owned by the shared stream engine in internal/prefetch) plus an 8 KB
// bucket buffer that coalesces index read-modify-write traffic (§4.3).
package core

import "fmt"

// indexEntry maps a miss address to a packed {core, position} history
// pointer (the test-visible bucket view).
type indexEntry struct {
	blk uint64
	ptr uint64
}

// IndexTable is the functional model of the main-memory hash table:
// power-of-two buckets of BucketWays entries kept most-recent-first.
// Memory traffic and latency for reaching it are charged by Meta through
// the prefetch.Env; this structure is the authoritative contents.
//
// Storage is flat and column-split: all bucket keys in one array, all
// history pointers in another, with a per-bucket occupancy count. The
// lookup — one per off-chip demand miss — then scans a dense run of
// keys (up to 12 x 8 bytes, at most two cache lines) with no per-bucket
// slice headers or pointer indirection, and loads the pointer column
// only on a hit.
type IndexTable struct {
	ways  int
	shift uint
	keys  []uint64 // buckets x ways, bucket-major, MRU first
	ptrs  []uint64 // history pointer for keys[i]
	blen  []uint8  // live entries per bucket

	// Stats.
	Hits      uint64
	Misses    uint64
	Updates   uint64
	Inserts   uint64
	Evictions uint64
}

// NewIndexTable builds a table with the given bucket count (power of two)
// and ways per bucket (12 entries fill one 64-byte block, §5.4).
func NewIndexTable(buckets, ways int) *IndexTable {
	if buckets <= 0 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("core: bucket count %d is not a positive power of two", buckets))
	}
	if ways <= 0 {
		panic("core: ways must be positive")
	}
	if ways > 255 {
		panic("core: ways above 255 unsupported")
	}
	log2 := 0
	for 1<<log2 < buckets {
		log2++
	}
	return &IndexTable{
		ways:  ways,
		shift: uint(64 - log2),
		keys:  make([]uint64, buckets*ways),
		ptrs:  make([]uint64, buckets*ways),
		blen:  make([]uint8, buckets),
	}
}

// Buckets returns the bucket count.
func (t *IndexTable) Buckets() int { return len(t.blen) }

// SizeBytes returns the main-memory footprint: one 64-byte block per
// bucket.
func (t *IndexTable) SizeBytes() uint64 { return uint64(len(t.blen)) * 64 }

// Len returns the number of live entries.
func (t *IndexTable) Len() int {
	n := 0
	for _, l := range t.blen {
		n += int(l)
	}
	return n
}

// BucketOf hashes blk to its bucket (Fibonacci multiplicative hashing —
// cheap enough for the hardware hash unit of Figure 2).
func (t *IndexTable) BucketOf(blk uint64) uint32 {
	return uint32((blk * 0x9e3779b97f4a7c15) >> t.shift)
}

// Lookup searches blk's bucket linearly (§4.3: "searched linearly; linear
// search is negligible relative to the off-chip read latency"). A lookup
// does not reorder the bucket: only updates rewrite it.
func (t *IndexTable) Lookup(blk uint64) (ptr uint64, ok bool) {
	bi := t.BucketOf(blk)
	base := int(bi) * t.ways
	keys := t.keys[base : base+int(t.blen[bi])]
	for i := range keys {
		if keys[i] == blk {
			t.Hits++
			return t.ptrs[base+i], true
		}
	}
	t.Misses++
	return 0, false
}

// Update sets blk's history pointer, moving the entry to the bucket's MRU
// position; a missing address replaces the bucket's LRU entry (§4.3).
func (t *IndexTable) Update(blk, ptr uint64) {
	t.Updates++
	bi := t.BucketOf(blk)
	base := int(bi) * t.ways
	n := int(t.blen[bi])
	keys := t.keys[base : base+n]
	for i := range keys {
		if keys[i] == blk {
			copy(t.keys[base+1:base+i+1], t.keys[base:base+i])
			copy(t.ptrs[base+1:base+i+1], t.ptrs[base:base+i])
			t.keys[base] = blk
			t.ptrs[base] = ptr
			return
		}
	}
	t.Inserts++
	if n < t.ways {
		t.blen[bi]++
		n++
	} else {
		t.Evictions++
	}
	copy(t.keys[base+1:base+n], t.keys[base:base+n-1])
	copy(t.ptrs[base+1:base+n], t.ptrs[base:base+n-1])
	t.keys[base] = blk
	t.ptrs[base] = ptr
}

// bucketContents returns a copy of bucket bi, MRU first (tests).
func (t *IndexTable) bucketContents(bi uint32) []indexEntry {
	base := int(bi) * t.ways
	out := make([]indexEntry, t.blen[bi])
	for i := range out {
		out[i] = indexEntry{blk: t.keys[base+i], ptr: t.ptrs[base+i]}
	}
	return out
}
