package core

// bucketBuffer models the 8 KB on-chip buffer that holds index-table
// buckets between lookup, update, and write-back (§4.3, §5.3). It caches
// bucket *identities* with dirty bits and LRU replacement; the bucket
// contents themselves live in the authoritative IndexTable. Its effect is
// purely on traffic and latency: operations hitting the buffer avoid a
// memory read, and dirty buckets are written back once on eviction no
// matter how many updates they absorbed.
//
// The buffer is bound to its table: each bucket's residency is the bb
// field of the bucket's own head line (node + 1, 0 when not resident), so
// the residency check reads the line that the lookup or update just
// loaded, with no search structure of its own. The table's heads are
// allocated once and never move; IndexTable.Restore clears the field and
// restore sets it again.
type bucketBuffer struct {
	cap   int
	heads []bucketHead
	nodes []bbNode
	head  int32
	tail  int32

	// Stats.
	Hits       uint64
	MissesRead uint64
	Writebacks uint64
}

type bbNode struct {
	id         uint32
	dirty      bool
	prev, next int32
}

const bbNil = int32(-1)

// newBucketBuffer builds a buffer holding capacity buckets (8 KB / 64 B =
// 128) of table t.
func newBucketBuffer(capacity int, t *IndexTable) *bucketBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &bucketBuffer{cap: capacity, heads: t.heads, head: bbNil, tail: bbNil}
}

func (b *bucketBuffer) len() int { return len(b.nodes) }

func (b *bucketBuffer) detach(i int32) {
	n := &b.nodes[i]
	if n.prev != bbNil {
		b.nodes[n.prev].next = n.next
	} else {
		b.head = n.next
	}
	if n.next != bbNil {
		b.nodes[n.next].prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = bbNil, bbNil
}

func (b *bucketBuffer) pushFront(i int32) {
	n := &b.nodes[i]
	n.prev = bbNil
	n.next = b.head
	if b.head != bbNil {
		b.nodes[b.head].prev = i
	}
	b.head = i
	if b.tail == bbNil {
		b.tail = i
	}
}

// refresh moves resident node i to the MRU position, optionally dirtying
// it.
func (b *bucketBuffer) refresh(i int32, dirty bool) {
	b.detach(i)
	b.pushFront(i)
	if dirty {
		b.nodes[i].dirty = true
	}
}

// touch refreshes bucket id if present, optionally dirtying it. It reports
// whether the bucket was resident.
func (b *bucketBuffer) touch(id uint32, dirty bool) bool {
	i := b.heads[id].bb - 1
	if i < 0 {
		return false
	}
	b.refresh(i, dirty)
	b.Hits++
	return true
}

// insert adds bucket id (after a memory read brought it on chip). If a
// dirty bucket is evicted to make room, evictedDirty reports it so the
// caller can charge the write-back.
func (b *bucketBuffer) insert(id uint32, dirty bool) (evictedDirty bool) {
	h := &b.heads[id]
	if h.bb != 0 {
		// Already resident (racing fills); just refresh.
		b.refresh(h.bb-1, dirty)
		return false
	}
	b.MissesRead++
	var i int32
	if len(b.nodes) < b.cap {
		b.nodes = append(b.nodes, bbNode{})
		i = int32(len(b.nodes) - 1)
	} else {
		// Full: the LRU node's slot takes the new bucket.
		i = b.tail
		b.detach(i)
		v := &b.nodes[i]
		b.heads[v.id].bb = 0
		if v.dirty {
			evictedDirty = true
			b.Writebacks++
		}
	}
	b.nodes[i] = bbNode{id: id, dirty: dirty, prev: bbNil, next: bbNil}
	h.bb = i + 1
	b.pushFront(i)
	return evictedDirty
}

// flushDirtyCount returns how many resident buckets are dirty (drained as
// write-backs when a measurement ends).
func (b *bucketBuffer) flushDirtyCount() uint64 {
	var n uint64
	for i := b.head; i != bbNil; i = b.nodes[i].next {
		if b.nodes[i].dirty {
			n++
		}
	}
	return n
}
