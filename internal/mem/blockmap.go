package mem

import (
	"iter"
	"math/bits"
	"unsafe"
)

// emptyKey marks a free slot directly in the key array, so the probe
// loop touches one contiguous array instead of a parallel occupancy
// array. Block numbers stay far below 2^64 (the trace arenas end near
// 2^41); the public methods guard the one unusable key explicitly.
const emptyKey = ^uint64(0)

// BlockMap is a small open-addressed hash table from block numbers to
// int32 values, built for the simulator's per-access hot paths (MSHR
// files, prefetch buffers) where a built-in map's hashing, bucket
// chasing, and incremental-growth machinery dominate the profile.
//
// Linear probing with backward-shift deletion keeps lookups to a short
// contiguous scan with no tombstones; the table stays at a fixed
// power-of-two size chosen from the expected population (these structures
// are architecturally bounded — 64 MSHRs, 32 buffer blocks), growing only
// if the caller overshoots the hint.
//
// Keys and values stay in two arrays rather than interleaved 16-byte
// slots. The ideal index's table runs to 524,288 slots, and the GC heap
// goal doubles any bytes a slot adds: interleaving raised the fig8-timed
// benchmark's peak RSS from about 35 to 46 MB (5 of 5 runs) and did not
// raise its throughput.
type BlockMap struct {
	keys []uint64
	vals []int32
	n    int
	mask uint64
}

// NewBlockMap returns a map sized so that hint live entries stay under
// ~50% load.
func NewBlockMap(hint int) *BlockMap {
	if hint < 4 {
		hint = 4
	}
	size := 1 << bits.Len(uint(2*hint-1))
	m := &BlockMap{}
	m.init(size)
	return m
}

func (m *BlockMap) init(size int) {
	m.keys = make([]uint64, size)
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	m.vals = make([]int32, size)
	m.mask = uint64(size - 1)
}

// Len returns the live entry count.
func (m *BlockMap) Len() int { return m.n }

// home is the preferred slot for key k (Fibonacci hashing: block numbers
// are often sequential, and the golden-ratio multiply spreads runs).
func (m *BlockMap) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// Hint asks the host to start loading k's home key and value slots,
// where Get, Put and Delete of k begin. It changes nothing (HintLine).
func (m *BlockMap) Hint(k uint64) {
	i := m.home(k)
	HintLine(unsafe.Pointer(&m.keys[i]))
	HintLine(unsafe.Pointer(&m.vals[i]))
}

// HintLine asks the host CPU to start loading the cache line at p, so a
// later load of it need not stall: a prefetch instruction on amd64, a
// no-op elsewhere. It never faults and changes no memory. A plain Go
// load would not do: a load that misses the host caches blocks
// retirement until it returns, and a prefetch does not (DESIGN.md §6).
func HintLine(p unsafe.Pointer) { prefetch(p) }

// Get returns the value stored for k.
func (m *BlockMap) Get(k uint64) (int32, bool) {
	if k == emptyKey {
		return 0, false
	}
	for i := m.home(k); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case emptyKey:
			return 0, false
		}
	}
}

// Contains reports whether k is present.
func (m *BlockMap) Contains(k uint64) bool {
	_, ok := m.Get(k)
	return ok
}

// Put inserts or replaces the value for k. The all-ones key is reserved
// and silently ignored (no block number reaches it).
func (m *BlockMap) Put(k uint64, v int32) {
	if k == emptyKey {
		return
	}
	if 2*(m.n+1) > len(m.keys) {
		m.grow()
	}
	i := m.home(k)
	for m.keys[i] != emptyKey {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

// Delete removes k, reporting whether it was present. Removal backward-
// shifts the following probe run so no tombstones accumulate.
func (m *BlockMap) Delete(k uint64) bool {
	if k == emptyKey {
		return false
	}
	i := m.home(k)
	for {
		if m.keys[i] == emptyKey {
			return false
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & m.mask
	}
	// Backward-shift: pull any entry whose probe run passes through the
	// hole back into it, then continue from the entry's old slot.
	j := i
	for {
		m.keys[j] = emptyKey
		s := j
		for {
			s = (s + 1) & m.mask
			if m.keys[s] == emptyKey {
				m.n--
				return true
			}
			h := m.home(m.keys[s])
			// The entry at s may fill the hole at j iff its home lies at
			// or cyclically before j (its probe run passes through j).
			if (s-h)&m.mask >= (s-j)&m.mask {
				m.keys[j] = m.keys[s]
				m.vals[j] = m.vals[s]
				j = s
				break
			}
		}
	}
}

// All yields every live entry in table order, which depends on the
// map's insertion history; callers that need a canonical order sort.
func (m *BlockMap) All() iter.Seq2[uint64, int32] {
	return func(yield func(uint64, int32) bool) {
		for i, k := range m.keys {
			if k != emptyKey && !yield(k, m.vals[i]) {
				return
			}
		}
	}
}

func (m *BlockMap) grow() {
	keys, vals := m.keys, m.vals
	m.init(2 * len(keys))
	m.n = 0
	for i, k := range keys {
		if k != emptyKey {
			m.Put(k, vals[i])
		}
	}
}
