package trace

// Columnar trace tapes: a structure-of-arrays materialization of one
// bounded multi-core trace. A Tape is built once per
// (spec, seed, cores, records-per-core) identity — per-core segments
// generate in parallel, since generation is a pure per-core function —
// and then replayed any number of times through zero-allocation Cursors.
// Replay is a sequential array walk (varint decode + column loads), and
// every consumer of the same tape observes literally identical records.
// It is not much cheaper than generation: on the Fig. 8 workloads
// (scale 0.125, 4 cores, 200k records/core, 2-vCPU host) a build costs
// about 87 ns/record of processor time and a replay 25, against 38 for
// generating the records live, so a tape pays for its build only after
// about seven replays. Tapes serve traces that must outlive or leave
// one run — stms-trace files, worker stores, the stream outlet — while
// lab sessions generate each cell's trace live.
//
// Column layout, per core:
//
//   - data: one interleaved byte stream per record — the block number as
//     a zigzag-varint delta against the previous block (scans collapse
//     to one byte; dataset hops to a few), then one (Instrs, Work) cost
//     byte: an index into a per-core pair dictionary, or the 0xFF
//     escape followed by both values as uvarints. Memory records — the
//     bulk of every workload — share a single constant cost pair, so
//     their whole cost decode is one table load;
//   - PC: a per-core dictionary (u8 indices) — generators emit a handful
//     of static PCs — with a raw u32 column as overflow fallback;
//   - Dep: a bitset, one bit per record.

import (
	"fmt"
	"slices"
	"sync"
)

// costEscape in the cost byte announces inline uvarint Instrs and Work
// instead of a dictionary pair; the pair dictionary holds at most 255
// entries so the escape value is unambiguous.
const costEscape = 0xFF

// tapeColumns is one core's encoded record segment.
type tapeColumns struct {
	n      uint64   // records in this segment
	data   []byte   // interleaved block-delta varints and cost bytes
	pairs  []uint64 // cost-pair dictionary: Instrs<<32 | Work
	pcDict []uint32 // PC dictionary (dict encoding)
	pcIdx  []uint8  // per-record dictionary index; nil if overflowed
	pcRaw  []uint32 // per-record raw PCs; nil unless dictionary overflowed
	dep    []uint64 // dependence bitset
}

// Tape is an immutable columnar materialization of one bounded trace:
// cores × perCore records of the scaled spec — or scaled scenario — at
// the given seed. Safe for concurrent replay (Cursors share the tape
// read-only).
type Tape struct {
	spec    Spec // scaled spec the records were generated from
	seed    uint64
	perCore uint64
	cores   []tapeColumns
	bytes   int64

	// Scenario provenance: nil/empty for plain spec tapes. The spec
	// field holds the scenario's EffectiveSpec; marks locate phase
	// starts so replay windows statistics exactly as live generation.
	scenario *Scenario
	marks    []PhaseMark
}

// NewTape materializes perCore records for each of cores generators of
// the (already scaled) spec at seed. Per-core segments are generated
// concurrently; the result is deterministic and identical to consuming
// NewGenerator(NewLibrary(spec, seed), core, seed) directly.
func NewTape(spec Spec, seed uint64, cores int, perCore uint64) *Tape {
	if cores <= 0 {
		panic(fmt.Sprintf("trace: tape needs cores > 0, got %d", cores))
	}
	lib := NewLibrary(spec, seed)
	t := &Tape{
		spec:    spec,
		seed:    seed,
		perCore: perCore,
		cores:   make([]tapeColumns, cores),
	}
	// Generators are constructed sequentially (iteration-stream priming
	// mutates the library, in ascending core order); the encode loops
	// then run in parallel over disjoint per-core state.
	gens := make([]Generator, cores)
	for c := range gens {
		gens[c] = NewGenerator(lib, c, seed)
	}
	t.encode(gens)
	return t
}

// NewScenarioTape materializes perCore records for each of cores of the
// (already scaled) scenario at seed. Phase boundaries are recorded as
// marks; replaying the tape — including through the on-disk STMSTAPE
// format — is bit-identical to live scenario generation. Invalid
// scenarios panic, like invalid specs in NewTape; the lab converts
// panics to cell errors.
func NewScenarioTape(scn Scenario, seed uint64, cores int, perCore uint64) *Tape {
	if cores <= 0 {
		panic(fmt.Sprintf("trace: tape needs cores > 0, got %d", cores))
	}
	gens, marks, err := scn.Generators(seed, cores, perCore)
	if err != nil {
		panic(err)
	}
	t := &Tape{
		spec:     scn.EffectiveSpec(cores, perCore),
		seed:     seed,
		perCore:  perCore,
		cores:    make([]tapeColumns, cores),
		scenario: &scn,
		marks:    marks,
	}
	t.encode(gens)
	return t
}

// encode drains the per-core generators into columns concurrently (the
// generators' mutable state is disjoint per core by construction).
func (t *Tape) encode(gens []Generator) {
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t.cores[c] = encodeSegment(gens[c], t.perCore)
		}(c)
	}
	wg.Wait()
	for i := range t.cores {
		t.bytes += t.cores[i].footprint()
	}
}

// maxRecordBytes bounds one record's encoding in the data stream: a
// 10-byte block-delta uvarint, the cost byte, and an escaped pair's two
// 5-byte uvarints.
const maxRecordBytes = 10 + 1 + 5 + 5

// dataBytesPerRecord sizes a segment's data buffer up front: the paper
// workloads encode in 5.7 to 8.4 B/record, so their buffers never grow.
const dataBytesPerRecord = 9

// encodeSegment drains up to perCore records from gen into columns. It
// pulls records a frame at a time (never past the budget), resolves cost
// pairs and PCs through fixed-size dictionaries, writes the data stream
// into one buffer sized for the whole segment, and trims every column to
// its exact length.
func encodeSegment(gen Generator, perCore uint64) tapeColumns {
	e := &segmentEncoder{
		budget: perCore,
		data:   make([]byte, 0, perCore*dataBytesPerRecord+FrameCap*maxRecordBytes),
		pcIdx:  make([]uint8, perCore),
		dep:    make([]uint64, (perCore+63)/64),
	}
	e.pairs.limit, e.pcs.limit = costEscape, 256
	f := NewFrame()
	for e.n < e.budget {
		if rem := e.budget - e.n; rem < uint64(f.cap) {
			*f = f.window(0, int(rem))
		}
		if gen.ReadFrame(f) == 0 {
			break
		}
		e.frame(f)
	}
	return e.columns()
}

// segmentEncoder accumulates one segment's columns.
type segmentEncoder struct {
	budget, n uint64
	prev      uint64 // previous record's block, the delta base
	data      []byte
	pcIdx     []uint8  // nil once the PC dictionary overflowed
	pcRaw     []uint32 // the overflow column, sized for the whole budget
	dep       []uint64
	pairs     dict // Instrs<<32 | Work → cost byte
	pcs       dict
}

// frame appends f's records, one column at a time.
func (e *segmentEncoder) frame(f *Frame) {
	n := f.n
	if cap(e.data)-len(e.data) < n*maxRecordBytes {
		// Denser than estimated: make room for the rest of the segment
		// at the worst case, so a segment's buffer grows at most once.
		e.data = slices.Grow(e.data, int(e.budget-e.n)*maxRecordBytes)
	}
	buf := e.data[len(e.data) : len(e.data)+n*maxRecordBytes]
	w := 0
	prev := e.prev
	instrs, works := f.Instrs[:n], f.Work[:n]
	for i, blk := range f.Block[:n] {
		if d := zigzag(int64(blk - prev)); d < 0x80 {
			buf[w] = byte(d)
			w++
		} else {
			w = putUvarint(buf, w, d)
		}
		prev = blk
		pair := uint64(instrs[i])<<32 | uint64(works[i])
		h := dictHome(pair)
		id := e.pairs.ids[h]
		if e.pairs.slots[h] != pair || id == 0 {
			id = e.pairs.probe(pair, h)
		}
		if id != 0 {
			buf[w] = uint8(id - 1)
			w++
		} else {
			// A cost pair past the dictionary capacity (jittered gap
			// records): escape to inline values.
			buf[w] = costEscape
			w = putUvarint(buf, w+1, uint64(instrs[i]))
			w = putUvarint(buf, w, uint64(works[i]))
		}
	}
	e.data = e.data[:len(e.data)+w]
	e.prev = prev

	base := e.n
	pcs := f.PC[:n]
	if e.pcIdx != nil {
		idx := e.pcIdx[base : base+uint64(n)]
		for i, pc := range pcs {
			h := dictHome(uint64(pc))
			id := e.pcs.ids[h]
			if e.pcs.slots[h] != uint64(pc) || id == 0 {
				id = e.pcs.probe(uint64(pc), h)
			}
			if id == 0 {
				// Dictionary overflow (custom workloads with huge PC
				// sets): fall back to a raw column, rebuilt from the
				// dictionary-encoded prefix.
				e.pcRaw = make([]uint32, len(e.pcIdx))
				for j, di := range e.pcIdx[:base+uint64(i)] {
					e.pcRaw[j] = uint32(e.pcs.keys[di])
				}
				e.pcIdx = nil
				copy(e.pcRaw[base+uint64(i):], pcs[i:])
				break
			}
			idx[i] = uint8(id - 1)
		}
	} else {
		copy(e.pcRaw[base:], pcs)
	}
	for i, d := range f.Dep[:n] {
		if d {
			j := base + uint64(i)
			e.dep[j>>6] |= 1 << (j & 63)
		}
	}
	e.n += uint64(n)
}

// columns returns the encoded segment, every column at its exact length.
func (e *segmentEncoder) columns() tapeColumns {
	col := tapeColumns{
		n:     e.n,
		data:  slices.Clone(e.data),
		pairs: slices.Clone(e.pairs.keys[:e.pairs.n]),
		dep:   e.dep[:(e.n+63)/64],
	}
	if e.pcIdx != nil {
		col.pcIdx = e.pcIdx[:e.n]
		col.pcDict = make([]uint32, e.pcs.n)
		for i, pc := range e.pcs.keys[:e.pcs.n] {
			col.pcDict[i] = uint32(pc)
		}
	} else {
		col.pcRaw = e.pcRaw[:e.n]
	}
	return col
}

// dictBits sizes a dictionary's hash table at 1024 slots, four times its
// largest capacity (256 PCs), so nearly every key sits in its home slot.
const (
	dictBits  = 10
	dictSlots = 1 << dictBits
)

// dict assigns dense indices to at most limit (<= 256) distinct keys in
// first-seen order, through a fixed-size linear-probing table. Callers
// inline the fast path, a hit in the key's home slot:
//
//	h := dictHome(key)
//	id := d.ids[h]
//	if d.slots[h] != key || id == 0 {
//		id = d.probe(key, h)
//	}
type dict struct {
	n, limit int
	keys     [256]uint64       // keys in index order
	slots    [dictSlots]uint64 // table keys
	ids      [dictSlots]uint16 // table indices + 1; 0 marks an empty slot
}

// dictHome is key's home slot (Fibonacci hashing).
func dictHome(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - dictBits) }

// probe returns key's index + 1, searching from slot h and adding key
// when it is new and fewer than limit keys are held; 0 means the
// dictionary is full without it.
func (d *dict) probe(key, h uint64) uint16 {
	for d.ids[h] != 0 && d.slots[h] != key {
		h = (h + 1) & (dictSlots - 1)
	}
	if id := d.ids[h]; id != 0 {
		return id
	}
	if d.n == d.limit {
		return 0
	}
	d.keys[d.n] = key
	d.n++
	d.slots[h], d.ids[h] = key, uint16(d.n)
	return uint16(d.n)
}

func (c *tapeColumns) footprint() int64 {
	return int64(len(c.data)) + int64(len(c.pairs))*8 +
		int64(len(c.pcDict))*4 + int64(len(c.pcIdx)) +
		int64(len(c.pcRaw))*4 + int64(len(c.dep))*8
}

// Spec returns the (scaled) workload spec the tape was generated from;
// for scenario tapes, the scenario's EffectiveSpec.
func (t *Tape) Spec() Spec { return t.spec }

// Scenario returns the scaled scenario the tape materializes, or nil
// for plain spec tapes.
func (t *Tape) Scenario() *Scenario { return t.scenario }

// Marks returns the tape's phase-start offsets (per core), nil for
// plain spec tapes and single-phase scenarios. The slice is shared;
// callers must not mutate it.
func (t *Tape) Marks() []PhaseMark { return t.marks }

// Seed returns the trace seed.
func (t *Tape) Seed() uint64 { return t.seed }

// Cores returns the number of per-core segments.
func (t *Tape) Cores() int { return len(t.cores) }

// PerCore returns the record budget each segment was materialized with.
// Segments from never-dry generators hold exactly this many records.
func (t *Tape) PerCore() uint64 { return t.perCore }

// Len returns the number of records actually held for core.
func (t *Tape) Len(core int) uint64 { return t.cores[core].n }

// Bytes returns the approximate in-memory footprint of the columns, for
// cache accounting.
func (t *Tape) Bytes() int64 { return t.bytes }

// Cursor returns a new replay cursor over core's segment, positioned at
// the first record. Cursors are independent; ReadFrame allocates nothing.
func (t *Tape) Cursor(core int) *Cursor {
	return t.CursorN(core, t.cores[core].n)
}

// CursorN returns a cursor over core's segment that runs dry after at
// most n records — a built-in Limit, without the wrapper's extra
// interface hop on the simulator's per-record path.
func (t *Tape) CursorN(core int, n uint64) *Cursor {
	if core < 0 || core >= len(t.cores) {
		panic(fmt.Sprintf("trace: tape cursor for core %d of %d", core, len(t.cores)))
	}
	col := &t.cores[core]
	if n > col.n {
		n = col.n
	}
	return &Cursor{col: col, n: n}
}

// Cursor replays one core's tape segment; it implements Generator and
// runs dry after its record bound (Tape.Len(core), or the CursorN cap).
type Cursor struct {
	col  *tapeColumns
	n    uint64
	pos  uint64
	off  int // read position in col.data
	prev uint64
}

// Reset rewinds the cursor to the first record, keeping its bound.
func (cu *Cursor) Reset() { *cu = Cursor{col: cu.col, n: cu.n} }

// Remaining returns how many records are left.
func (cu *Cursor) Remaining() uint64 { return cu.n - cu.pos }

// ReadFrame decodes the next run of records straight from the tape
// columns into the frame's columns in one pass — no per-record virtual
// call and column bases hoisted. Cursor state advances past the decoded
// run.
func (cu *Cursor) ReadFrame(f *Frame) int {
	col := cu.col
	n := uint64(f.cap)
	if rem := cu.n - cu.pos; rem < n {
		n = rem
	}
	if n == 0 {
		f.n = 0
		return 0
	}
	data := col.data
	pairs := col.pairs
	off := cu.off
	prev := cu.prev
	blocks := f.Block[:n]
	instrs := f.Instrs[:n]
	works := f.Work[:n]
	for i := range blocks {
		// Inline single-byte uvarint fast path (most deltas and all cost
		// bytes are one byte).
		var d uint64
		if c := data[off]; c < 0x80 {
			d = uint64(c)
			off++
		} else {
			d, off = readUvarint(data, off)
		}
		prev += uint64(unzigzag(d))
		blocks[i] = prev
		if pi := data[off]; pi != costEscape {
			pair := pairs[pi]
			instrs[i] = uint32(pair >> 32)
			works[i] = uint32(pair)
			off++
		} else {
			var v uint64
			v, off = readUvarint(data, off+1)
			instrs[i] = uint32(v)
			v, off = readUvarint(data, off)
			works[i] = uint32(v)
		}
	}
	pos := cu.pos
	pcs := f.PC[:n]
	if col.pcIdx != nil {
		dict := col.pcDict
		for i, di := range col.pcIdx[pos : pos+n] {
			pcs[i] = dict[di]
		}
	} else {
		copy(pcs, col.pcRaw[pos:pos+n])
	}
	deps := f.Dep[:n]
	for i := range deps {
		j := pos + uint64(i)
		deps[i] = col.dep[j>>6]>>(j&63)&1 != 0
	}
	cu.off = off
	cu.prev = prev
	cu.pos = pos + n
	f.n = int(n)
	return int(n)
}

// zigzag maps signed deltas onto small unsigned values.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint writes v in LEB128 (as encoding/binary does) at b[w:],
// returning the offset just past it.
func putUvarint(b []byte, w int, v uint64) int {
	for v >= 0x80 {
		b[w] = byte(v) | 0x80
		v >>= 7
		w++
	}
	b[w] = byte(v)
	return w + 1
}

// readUvarint decodes the uvarint at b[off:], returning the value and
// the offset just past it. The single-byte case — most records — stays
// on a branchless fast path.
func readUvarint(b []byte, off int) (uint64, int) {
	c := b[off]
	if c < 0x80 {
		return uint64(c), off + 1
	}
	v := uint64(c & 0x7f)
	for shift := uint(7); ; shift += 7 {
		off++
		c = b[off]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off + 1
		}
	}
}
