package core

import "stms/internal/mem"

// bucketBuffer models the 8 KB on-chip buffer that holds index-table
// buckets between lookup, update, and write-back (§4.3, §5.3). It caches
// bucket *identities* with dirty bits and LRU replacement; the bucket
// contents themselves live in the authoritative IndexTable. Its effect is
// purely on traffic and latency: operations hitting the buffer avoid a
// memory read, and dirty buckets are written back once on eviction no
// matter how many updates they absorbed. Residency is indexed by an
// open-addressed mem.BlockMap (bucket id → node), off the built-in map
// machinery on the per-miss path.
type bucketBuffer struct {
	cap   int
	m     *mem.BlockMap
	nodes []bbNode
	free  []int32
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
// 128).
func newBucketBuffer(capacity int) *bucketBuffer {
	if capacity <= 0 {
		capacity = 1
	}
	return &bucketBuffer{cap: capacity, m: mem.NewBlockMap(capacity), head: bbNil, tail: bbNil}
}

func (b *bucketBuffer) len() int { return b.m.Len() }

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

// touch refreshes bucket id if present, optionally dirtying it. It reports
// whether the bucket was resident.
func (b *bucketBuffer) touch(id uint32, dirty bool) bool {
	i, ok := b.m.Get(uint64(id))
	if !ok {
		return false
	}
	b.detach(i)
	b.pushFront(i)
	if dirty {
		b.nodes[i].dirty = true
	}
	b.Hits++
	return true
}

// insert adds bucket id (after a memory read brought it on chip). If a
// dirty bucket is evicted to make room, evictedDirty reports it so the
// caller can charge the write-back.
func (b *bucketBuffer) insert(id uint32, dirty bool) (evictedDirty bool) {
	if i, ok := b.m.Get(uint64(id)); ok {
		// Already resident (racing fills); just refresh.
		b.detach(i)
		b.pushFront(i)
		if dirty {
			b.nodes[i].dirty = true
		}
		return false
	}
	b.MissesRead++
	if b.m.Len() >= b.cap {
		victim := b.tail
		b.detach(victim)
		b.m.Delete(uint64(b.nodes[victim].id))
		if b.nodes[victim].dirty {
			evictedDirty = true
			b.Writebacks++
		}
		b.free = append(b.free, victim)
	}
	var i int32
	if n := len(b.free); n > 0 {
		i = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		b.nodes = append(b.nodes, bbNode{})
		i = int32(len(b.nodes) - 1)
	}
	b.nodes[i] = bbNode{id: id, dirty: dirty, prev: bbNil, next: bbNil}
	b.m.Put(uint64(id), i)
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
