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

import (
	"fmt"
	"unsafe"

	"stms/internal/mem"
)

// indexEntry maps a miss address to a packed {core, position} history
// pointer.
type indexEntry struct {
	blk uint64
	ptr uint64
}

const (
	headWays  = 3    // entries a bucket keeps in its head line
	chunkPage = 4096 // overflow entries per page
)

// bucketHead is one bucket's 64-byte host line: its length, the offset
// of its overflow chunk, its headWays most-recent entries, and its
// bucket-buffer residency.
type bucketHead struct {
	n  uint32
	ov uint32 // first entry of the overflow chunk; meaningful once n > headWays
	e  [headWays]indexEntry
	bb int32 // bucket-buffer node + 1, 0 when not resident (bucketBuffer)
	_  [4]byte
}

// IndexTable is the functional model of the main-memory hash table:
// power-of-two buckets of BucketWays entries kept most-recent-first.
// Memory traffic and latency for reaching it are charged by Meta through
// the prefetch.Env; this structure is the authoritative contents.
//
// Host storage follows occupancy, not the modelled capacity. Each bucket
// is one 64-byte head line holding its length, its three most-recent
// entries and its bucket-buffer residency, addressed straight from
// BucketOf, so the lookup — one per off-chip demand miss — and the
// residency check after it usually touch one host line. Ways four and up
// live in a per-bucket overflow chunk of ways-3 entries, handed out on
// the bucket's fourth insert from fixed 4096-entry pages (DESIGN.md §5).
// Buckets never shrink, so a chunk is never freed, moved or copied.
type IndexTable struct {
	ways  int
	shift uint
	heads []bucketHead
	pages []*[chunkPage]indexEntry
	next  uint32 // first unallocated overflow entry

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
	// Overflow offsets are uint32, so chunks may fill at most 2^20 pages.
	if ways > headWays && buckets/(chunkPage/(ways-headWays)) >= 1<<20 {
		panic("core: index table too large")
	}
	log2 := 0
	for 1<<log2 < buckets {
		log2++
	}
	return &IndexTable{
		ways:  ways,
		shift: uint(64 - log2),
		heads: make([]bucketHead, buckets),
	}
}

// Buckets returns the bucket count.
func (t *IndexTable) Buckets() int { return len(t.heads) }

// SizeBytes returns the main-memory footprint: one 64-byte block per
// bucket.
func (t *IndexTable) SizeBytes() uint64 { return uint64(len(t.heads)) * 64 }

// Len returns the number of live entries.
func (t *IndexTable) Len() int {
	n := 0
	for i := range t.heads {
		n += int(t.heads[i].n)
	}
	return n
}

// BucketOf hashes blk to its bucket (Fibonacci multiplicative hashing —
// cheap enough for the hardware hash unit of Figure 2).
func (t *IndexTable) BucketOf(blk uint64) uint32 {
	return uint32((blk * 0x9e3779b97f4a7c15) >> t.shift)
}

// Hint asks the host to start loading the head line of blk's bucket,
// the line Lookup and Update of blk read first. It changes nothing
// (mem.HintLine).
func (t *IndexTable) Hint(blk uint64) {
	mem.HintLine(unsafe.Pointer(&t.heads[t.BucketOf(blk)]))
}

// Lookup searches blk's bucket linearly (§4.3: "searched linearly; linear
// search is negligible relative to the off-chip read latency"): the head
// line first, then the overflow chunk. A lookup does not reorder the
// bucket: only updates rewrite it.
func (t *IndexTable) Lookup(blk uint64) (uint64, bool) {
	h, ptr, ok := t.probe(t.BucketOf(blk), blk)
	if !ok {
		ptr, ok = t.lookupOverflow(h, blk)
	}
	return ptr, ok
}

// probe and lookupOverflow are Lookup's two halves. Each fits the
// inliner's budget where Lookup does not, so the per-miss caller
// (Meta.resolve) calls them in turn and keeps the whole search inline.
// probe scans the head line of blk's bucket bi and counts a hit there;
// on a miss lookupOverflow searches the chunk and counts the outcome.
func (t *IndexTable) probe(bi uint32, blk uint64) (h *bucketHead, ptr uint64, ok bool) {
	h = &t.heads[bi]
	for i := range min(h.n, headWays) {
		if h.e[i].blk == blk {
			t.Hits++
			return h, h.e[i].ptr, true
		}
	}
	return h, 0, false
}

func (t *IndexTable) lookupOverflow(h *bucketHead, blk uint64) (uint64, bool) {
	if h.n > headWays {
		for _, e := range t.chunk(h)[:h.n-headWays] {
			if e.blk == blk {
				t.Hits++
				return e.ptr, true
			}
		}
	}
	t.Misses++
	return 0, false
}

// chunk returns h's overflow entries (ways-3 of them, live or not).
func (t *IndexTable) chunk(h *bucketHead) []indexEntry {
	off := h.ov % chunkPage
	return t.pages[h.ov/chunkPage][off : off+uint32(t.ways-headWays)]
}

// Update sets blk's history pointer, moving the entry to the bucket's MRU
// position; a missing address replaces the bucket's LRU entry (§4.3).
func (t *IndexTable) Update(blk, ptr uint64) {
	t.Updates++
	h := &t.heads[t.BucketOf(blk)]
	n := int(h.n)
	// i is blk's position, or n when it is absent.
	i := 0
	for i < min(n, headWays) && h.e[i].blk != blk {
		i++
	}
	var ov []indexEntry
	if n > headWays {
		ov = t.chunk(h)
		if i == headWays {
			for i < n && ov[i-headWays].blk != blk {
				i++
			}
		}
	}
	if i == n {
		t.Inserts++
		if n < t.ways {
			if n == headWays {
				t.grow(h)
				ov = t.chunk(h)
			}
			n++
			h.n++
		} else {
			t.Evictions++
		}
		i = n - 1 // the slot the shift overwrites: blk's new slot or the LRU entry
	}
	// Shift entries [0, i) down one slot, crossing from the head into
	// the chunk, and put blk first.
	if i >= headWays {
		copy(ov[1:i-headWays+1], ov[:i-headWays])
		ov[0] = h.e[headWays-1]
		i = headWays - 1
	}
	switch i { // i < headWays = 3
	case 2:
		h.e[2] = h.e[1]
		fallthrough
	case 1:
		h.e[1] = h.e[0]
	}
	h.e[0] = indexEntry{blk: blk, ptr: ptr}
}

// grow gives h its overflow chunk from the current page, starting a new
// page when the chunk would not fit in what is left of it.
func (t *IndexTable) grow(h *bucketHead) {
	c := uint32(t.ways - headWays)
	if t.next%chunkPage+c > chunkPage {
		t.next += chunkPage - t.next%chunkPage
	}
	if int(t.next/chunkPage) == len(t.pages) {
		t.pages = append(t.pages, new([chunkPage]indexEntry))
	}
	h.ov = t.next
	t.next += c
}

// slot returns way w of bucket h, MRU first.
func (t *IndexTable) slot(h *bucketHead, w int) *indexEntry {
	if w < headWays {
		return &h.e[w]
	}
	return &t.chunk(h)[w-headWays]
}

// bucketContents returns a copy of bucket bi, MRU first (tests).
func (t *IndexTable) bucketContents(bi uint32) []indexEntry {
	h := &t.heads[bi]
	out := make([]indexEntry, h.n)
	for w := range out {
		out[w] = *t.slot(h, w)
	}
	return out
}
