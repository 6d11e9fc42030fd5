package core

// The paper reports examining "many possible structures (e.g., red-black
// trees, open address hash tables, direct-mapped tables)" for the index
// before settling on bucketized hashing with in-bucket LRU, because the
// alternatives "were either less storage efficient or sacrificed
// additional coverage due to increased lookup latency" (§5.4). This file
// implements the two flat alternatives so the ablation harness can
// regenerate that comparison:
//
//   - a direct-mapped table: one entry per slot, hash-indexed, no
//     associativity. Lookups still cost one memory access, but conflict
//     evictions destroy useful entries (storage inefficiency);
//   - an open-addressed table with linear probing: full storage density,
//     but a lookup or update touches every probed line, so memory
//     accesses per operation grow with load factor (latency/bandwidth
//     inefficiency), and without per-set LRU the table cannot age
//     entries gracefully.
//
// Both report how many 64-byte lines each operation touched so Meta can
// charge the memory system faithfully.

// IndexOrg selects the index-table organization.
type IndexOrg int

// Index organizations.
const (
	// OrgBucketLRU is the paper's design: 12-entry 64-byte buckets with
	// in-bucket LRU; every operation touches exactly one line.
	OrgBucketLRU IndexOrg = iota
	// OrgDirectMapped is a flat 1-way table (8-byte slots, 8 per line).
	OrgDirectMapped
	// OrgOpenAddress is linear-probing open addressing over 8-byte slots.
	OrgOpenAddress
)

// String names the organization.
func (o IndexOrg) String() string {
	switch o {
	case OrgBucketLRU:
		return "bucket-lru"
	case OrgDirectMapped:
		return "direct-mapped"
	case OrgOpenAddress:
		return "open-address"
	}
	return "unknown"
}

// altIndex is the operation contract shared by the alternative
// organizations. lines is the number of distinct memory lines the
// operation had to touch.
type altIndex interface {
	Lookup(blk uint64) (ptr uint64, ok bool, lines int)
	Update(blk, ptr uint64) (lines int)
	Len() int
	SizeBytes() uint64
}

// slotsPerLine is how many 8-byte {tag,ptr} slots fit a 64-byte line for
// the flat organizations. The pair is packed: tags are hashed remainders
// in a real design; functionally we store both fields.
const slotsPerLine = 8

// directIndex is the direct-mapped organization.
type directIndex struct {
	slots []indexEntry
	valid []bool
	mask  uint64

	Conflicts uint64 // updates that displaced a different address
}

func newDirectIndex(bytes uint64) *directIndex {
	want := bytes / 8
	n := uint64(1)
	for n*2 <= want {
		n *= 2
	}
	return &directIndex{
		slots: make([]indexEntry, n),
		valid: make([]bool, n),
		mask:  n - 1,
	}
}

func (d *directIndex) slotOf(blk uint64) uint64 {
	return (blk * 0x9e3779b97f4a7c15 >> 17) & d.mask
}

func (d *directIndex) Lookup(blk uint64) (uint64, bool, int) {
	i := d.slotOf(blk)
	if d.valid[i] && d.slots[i].blk == blk {
		return d.slots[i].ptr, true, 1
	}
	return 0, false, 1
}

func (d *directIndex) Update(blk, ptr uint64) int {
	i := d.slotOf(blk)
	if d.valid[i] && d.slots[i].blk != blk {
		d.Conflicts++
	}
	d.slots[i] = indexEntry{blk: blk, ptr: ptr}
	d.valid[i] = true
	return 1
}

func (d *directIndex) Len() int {
	n := 0
	for _, v := range d.valid {
		if v {
			n++
		}
	}
	return n
}

func (d *directIndex) SizeBytes() uint64 { return uint64(len(d.slots)) * 8 }

// openIndex is the linear-probing organization. Probing stops at an empty
// slot or after probeCap slots; a full probe window replaces its last
// slot (the structure has no cheap aging mechanism — the paper's storage
// criticism).
type openIndex struct {
	slots    []indexEntry
	valid    []bool
	mask     uint64
	used     int
	probeCap int

	ProbeTotal  uint64 // slots probed across all operations
	Ops         uint64
	ForcedEvict uint64 // probe window full: last slot overwritten
}

func newOpenIndex(bytes uint64, probeCap int) *openIndex {
	want := bytes / 8
	n := uint64(1)
	for n*2 <= want {
		n *= 2
	}
	if probeCap <= 0 {
		probeCap = 16
	}
	return &openIndex{
		slots:    make([]indexEntry, n),
		valid:    make([]bool, n),
		mask:     n - 1,
		probeCap: probeCap,
	}
}

func (o *openIndex) home(blk uint64) uint64 {
	return (blk * 0x9e3779b97f4a7c15 >> 17) & o.mask
}

// linesTouched converts a probe span starting at slot start into distinct
// 64-byte lines.
func linesTouched(start uint64, probes int) int {
	if probes <= 0 {
		return 1
	}
	first := start / slotsPerLine
	last := (start + uint64(probes) - 1) / slotsPerLine
	return int(last-first) + 1
}

func (o *openIndex) Lookup(blk uint64) (uint64, bool, int) {
	start := o.home(blk)
	for p := 0; p < o.probeCap; p++ {
		i := (start + uint64(p)) & o.mask
		o.ProbeTotal++
		if !o.valid[i] {
			o.Ops++
			return 0, false, linesTouched(start, p+1)
		}
		if o.slots[i].blk == blk {
			o.Ops++
			return o.slots[i].ptr, true, linesTouched(start, p+1)
		}
	}
	o.Ops++
	return 0, false, linesTouched(start, o.probeCap)
}

func (o *openIndex) Update(blk, ptr uint64) int {
	start := o.home(blk)
	for p := 0; p < o.probeCap; p++ {
		i := (start + uint64(p)) & o.mask
		o.ProbeTotal++
		if !o.valid[i] {
			o.slots[i] = indexEntry{blk: blk, ptr: ptr}
			o.valid[i] = true
			o.used++
			o.Ops++
			return linesTouched(start, p+1)
		}
		if o.slots[i].blk == blk {
			o.slots[i].ptr = ptr
			o.Ops++
			return linesTouched(start, p+1)
		}
	}
	// Probe window exhausted: overwrite the final slot. This is the
	// degenerate aging behaviour of open addressing under churn.
	i := (start + uint64(o.probeCap) - 1) & o.mask
	o.slots[i] = indexEntry{blk: blk, ptr: ptr}
	o.ForcedEvict++
	o.Ops++
	return linesTouched(start, o.probeCap)
}

func (o *openIndex) Len() int { return o.used }

func (o *openIndex) SizeBytes() uint64 { return uint64(len(o.slots)) * 8 }
