package ghb

import (
	"stms/internal/ckpt"
	"stms/internal/mem"
)

// index is the idealized correlation index: a map from miss address to
// packed {core, history position}. Only a capacity-bounded index needs
// recency (Figure 1 left sweeps the capacity with global LRU
// replacement); the unbounded one never evicts and keeps none.
type index interface {
	len() int
	// get returns the value for key without refreshing recency (a
	// lookup does not rewrite the idealized table; recency tracks
	// recording, matching the "most recent occurrence" semantics of
	// §5.3).
	get(key uint64) (uint64, bool)
	// put inserts or updates key as its most recent occurrence.
	put(key, val uint64)
	remove(key uint64)
	// hint asks the host to start loading key's address-map slots
	// (mem.BlockMap.Hint).
	hint(key uint64)
	snapshot(enc *ckpt.Encoder)
	restore(dec *ckpt.Decoder) error
}

func newIndex(capacity uint64) index {
	if capacity == 0 {
		return &flatIndex{m: mem.NewBlockMap(0), free: nilNode}
	}
	return newLRUIndex(capacity)
}

// flatIndex is the unbounded index. The address map (the open-addressed
// mem.BlockMap — per-miss get/put is the idealized variant's hottest
// path) holds a value slot; the packed pointers live in fixed pages of
// slots allocated as the index grows, so no table is ever copied to
// grow. A slot freed by remove (a stale pointer dropped at lookup)
// holds the next free slot, and put reuses freed slots first.
type flatIndex struct {
	m     *mem.BlockMap
	pages []*[indexPage]uint64
	used  int32 // slots ever handed out
	free  int32 // most recently freed slot, nilNode when none
}

const (
	indexPageShift = 12
	indexPage      = 1 << indexPageShift
)

func (x *flatIndex) len() int { return x.m.Len() }

func (x *flatIndex) at(i int32) *uint64 {
	return &x.pages[i>>indexPageShift][i&(indexPage-1)]
}

func (x *flatIndex) get(key uint64) (uint64, bool) {
	i, ok := x.m.Get(key)
	if !ok {
		return 0, false
	}
	return *x.at(i), true
}

func (x *flatIndex) put(key, val uint64) {
	i, ok := x.m.Get(key)
	if !ok {
		i = x.alloc()
		x.m.Put(key, i)
	}
	*x.at(i) = val
}

func (x *flatIndex) hint(key uint64) { x.m.Hint(key) }

// alloc returns the most recently freed slot, else a fresh one, adding a
// page when the last is full.
func (x *flatIndex) alloc() int32 {
	if i := x.free; i != nilNode {
		x.free = int32(*x.at(i))
		return i
	}
	if int(x.used>>indexPageShift) == len(x.pages) {
		x.pages = append(x.pages, new([indexPage]uint64))
	}
	x.used++
	return x.used - 1
}

func (x *flatIndex) remove(key uint64) {
	i, ok := x.m.Get(key)
	if !ok {
		return
	}
	x.m.Delete(key)
	*x.at(i) = uint64(x.free)
	x.free = i
}

// lruIndex is the capacity-bounded index with global LRU replacement.
// The LRU list is intrusive over slice-backed nodes so the structure
// stays allocation-friendly at millions of entries.
type lruIndex struct {
	cap   uint64
	m     *mem.BlockMap
	nodes []lruNode
	free  []int32
	head  int32 // most recent
	tail  int32 // least recent

	evictions uint64
}

type lruNode struct {
	key        uint64
	val        uint64
	prev, next int32
}

const nilNode = int32(-1)

func newLRUIndex(capacity uint64) *lruIndex {
	return &lruIndex{cap: capacity, m: mem.NewBlockMap(int(min(capacity, 1<<16))), head: nilNode, tail: nilNode}
}

func (l *lruIndex) len() int { return l.m.Len() }

func (l *lruIndex) detach(i int32) {
	n := &l.nodes[i]
	if n.prev != nilNode {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilNode {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
}

func (l *lruIndex) pushFront(i int32) {
	n := &l.nodes[i]
	n.prev = nilNode
	n.next = l.head
	if l.head != nilNode {
		l.nodes[l.head].prev = i
	}
	l.head = i
	if l.tail == nilNode {
		l.tail = i
	}
}

func (l *lruIndex) hint(key uint64) { l.m.Hint(key) }

func (l *lruIndex) get(key uint64) (uint64, bool) {
	i, ok := l.m.Get(key)
	if !ok {
		return 0, false
	}
	return l.nodes[i].val, true
}

// put makes key most recent, evicting the least recent entry if over
// capacity.
func (l *lruIndex) put(key, val uint64) {
	if i, ok := l.m.Get(key); ok {
		l.nodes[i].val = val
		l.detach(i)
		l.pushFront(i)
		return
	}
	if uint64(l.m.Len()) >= l.cap {
		victim := l.tail
		l.detach(victim)
		l.m.Delete(l.nodes[victim].key)
		l.free = append(l.free, victim)
		l.evictions++
	}
	var i int32
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.nodes = append(l.nodes, lruNode{})
		i = int32(len(l.nodes) - 1)
	}
	l.nodes[i] = lruNode{key: key, val: val, prev: nilNode, next: nilNode}
	l.m.Put(key, i)
	l.pushFront(i)
}

func (l *lruIndex) remove(key uint64) {
	i, ok := l.m.Get(key)
	if !ok {
		return
	}
	l.detach(i)
	l.m.Delete(key)
	l.free = append(l.free, i)
}
