package trace

import (
	"sync"
	"sync/atomic"

	"stms/internal/mem"
	"stms/internal/rng"
)

// Address-space layout for generated workloads, in block numbers. The
// regions are far apart so they can never collide; the simulator treats
// block numbers as opaque.
const (
	datasetBase = uint64(0)       // temporal-stream working set
	scanBase    = uint64(1) << 33 // sequential scan arena
	hotBase     = uint64(1) << 38 // per-core hot sets (compute records)
	noiseBase   = uint64(1) << 40 // once-visited noise arena
	noiseBlocks = uint64(1) << 34 // noise draws from 2^34 blocks: recurrence is negligible
	scanStride  = uint64(1) << 24 // per-scan-stream spacing
)

// Library holds the state shared by all cores running one workload: the
// temporal-stream library and its recurrence distribution. Cores of a
// 4-core CMP share the library, so one core's recorded stream can be
// prefetched by another (the shared-index-table case of §4.2).
//
// The base library is immutable once every core's generator exists:
// churn (stream regeneration over time) lives in per-core overlay state
// inside each generator, driven by that core's own replay count and RNG.
// This makes every core's record sequence a pure function of
// (spec, seed, core) — independent of how the consumers interleave — so
// the timed driver's variant-dependent core interleavings all observe
// literally identical traces (exact matched pairs), and tape
// materialization can generate per-core segments in parallel.
type Library struct {
	spec Spec
	rnd  *rng.Rand
	zipf *rng.Zipf

	mu      sync.Mutex // guards streams growth in iteration mode
	streams [][]uint64
	dataset mem.Region

	regenerated atomic.Uint64 // streams regenerated by churn, all cores
}

// NewLibrary builds the shared stream library for spec, deterministically
// from seed.
func NewLibrary(spec Spec, seed uint64) *Library {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	l := &Library{
		spec: spec,
		rnd:  rng.New(seed ^ 0x51ab5eed),
	}
	if spec.IterStream {
		// One private iteration stream per core is generated lazily in
		// NewGenerator; the library only provides the address space.
		l.streams = make([][]uint64, 0, 8)
		l.dataset = mem.Region{Base: datasetBase, Blocks: uint64(spec.IterLen) * 16}
		return l
	}
	lengths := make([]int, spec.Streams)
	total := 0
	for i := range lengths {
		n := int(l.rnd.Pareto(spec.LenAlpha, float64(spec.LenMin), float64(spec.LenMax)))
		if n < spec.LenMin {
			n = spec.LenMin
		}
		lengths[i] = n
		total += n
	}
	// The dataset is several times the library footprint: streams share
	// some blocks (real data structures overlap, and lookups must cope
	// with aliased index entries) but collisions stay the exception, and
	// churned streams land on mostly fresh addresses.
	l.dataset = mem.Region{Base: datasetBase, Blocks: uint64(total) * 6}
	l.streams = make([][]uint64, spec.Streams)
	for i, n := range lengths {
		l.streams[i] = l.newStream(n)
	}
	l.zipf = rng.NewZipf(spec.Streams, spec.ZipfS)
	return l
}

func (l *Library) newStream(n int) []uint64 { return l.streamContent(l.rnd, n) }

// streamContent draws n stream blocks from the dataset region using r —
// the construction-time library RNG, or a generator's own RNG for churn.
func (l *Library) streamContent(r *rng.Rand, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = l.dataset.Base + r.Uint64n(l.dataset.Blocks)
	}
	return s
}

// Spec returns the library's workload spec.
func (l *Library) Spec() Spec { return l.spec }

// Footprint returns the number of distinct blocks in the live library
// (an upper bound; streams may collide on random addresses).
func (l *Library) Footprint() uint64 {
	var total uint64
	for _, s := range l.streams {
		total += uint64(len(s))
	}
	return total
}

// Regenerated returns how many streams churn has replaced, summed over
// every generator sharing the library.
func (l *Library) Regenerated() uint64 { return l.regenerated.Load() }

// iterStream returns (building if needed) the private iteration stream for
// core, used by the scientific workloads. Each core's stream is a random
// permutation of a disjoint block range: a scientific partition touches
// its own data exactly once per iteration (no block appears twice, and no
// block is shared across cores), while the shuffle keeps the sequence
// invisible to the stride prefetcher.
//
// Streams are always built in ascending core order from the library RNG,
// so their content is independent of which core asks first. The mutex
// makes concurrent generator construction safe; NewGenerator primes the
// core's stream, so ReadFrame never takes the lock.
func (l *Library) iterStream(core int) []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.streams) <= core {
		c := uint64(len(l.streams))
		n := uint64(l.spec.IterLen)
		base := datasetBase + c*n*2
		s := make([]uint64, n)
		for i := range s {
			s[i] = base + uint64(i)
		}
		// Fisher–Yates shuffle.
		for i := len(s) - 1; i > 0; i-- {
			j := l.rnd.Intn(i + 1)
			s[i], s[j] = s[j], s[i]
		}
		l.streams = append(l.streams, s)
	}
	return l.streams[core]
}

type genMode int

const (
	modeIdle genMode = iota
	modeChase
	modeScan
)

// generator is the per-core workload generator. It interleaves temporal
// stream replays, scan bursts, and noise, per the spec's mix, and shapes
// the cost structure as compute gaps between bursts of memory records.
//
// All mutable replay state — including churn — is per-core: once every
// core's generator is constructed, concurrent ReadFrame calls on different
// generators never touch shared memory, and each core's sequence is
// identical however the consumers interleave.
type generator struct {
	lib  *Library
	spec Spec
	rnd  *rng.Rand
	core int

	mode   genMode
	stream []uint64
	pos    int
	end    int

	// Churn state: this core's replay count and its private overlay of
	// regenerated streams. Replacing a shared stream with a per-core view
	// keeps generation order-independent; churned streams are a negligible
	// fraction of the library, so cross-core stream sharing is preserved
	// in practice while staleness dynamics (what churn models) are intact.
	replays uint64
	churned map[int][]uint64

	// iter is the primed per-core iteration stream (scientific mode).
	iter []uint64

	scanPCs  []uint32
	scanPos  []uint64
	scanIdx  int
	scanLeft int
	chasePC  uint32
	noisePC  uint32

	hotPC     uint32
	hotBase   uint64
	hotIdx    uint64
	burstLeft int

	// The spec's Bernoulli draws, precomputed as integer thresholds.
	burstCont, noiseInChase, skip, depChase, depNoise rng.Bernoulli
}

// NewGenerator creates the record stream for one core of the workload.
// Cores share lib; each core gets an independent deterministic RNG stream.
func NewGenerator(lib *Library, core int, seed uint64) Generator {
	return newGeneratorWithSpec(lib, lib.Spec(), core, seed)
}

// newGeneratorWithSpec creates a generator whose behavioral knobs come
// from spec while its stream content comes from lib. The scenario
// engine uses it for drift segments: the working set (library fields)
// stays put while behavior moves, so only what changed actually
// changes. spec's library-determining fields must match lib's.
func newGeneratorWithSpec(lib *Library, spec Spec, core int, seed uint64) Generator {
	g := &generator{
		lib:     lib,
		spec:    spec,
		rnd:     rng.New(seed ^ (uint64(core)+1)*0x9e3779b97f4a7c15),
		core:    core,
		chasePC: 0x4000_0000 + uint32(core)<<8,
		noisePC: 0x6000_0000 + uint32(core)<<8,
		hotPC:   0x2000_0000 + uint32(core)<<8,
		hotBase: hotBase + uint64(core)*1024,

		// Geometric continuation probability p gives mean 1/(1-p).
		burstCont:    rng.NewBernoulli(1 - 1/spec.BurstMean),
		noiseInChase: rng.NewBernoulli(spec.NoiseInChase),
		skip:         rng.NewBernoulli(spec.SkipProb),
		depChase:     rng.NewBernoulli(spec.DepChase),
		depNoise:     rng.NewBernoulli(spec.DepNoise),
	}
	n := spec.ScanStreams
	if n < 1 {
		n = 1
	}
	g.scanPCs = make([]uint32, n)
	g.scanPos = make([]uint64, n)
	for i := range g.scanPCs {
		g.scanPCs[i] = 0x1000 + uint32(core)*64 + uint32(i)
		g.scanPos[i] = scanBase + uint64(core)*scanStride*uint64(n) + uint64(i)*scanStride
	}
	if spec.IterStream {
		g.iter = lib.iterStream(core)
	}
	return g
}

// pickStream selects a temporal stream to replay and applies this core's
// churn bookkeeping. Every ChurnEvery replays the core regenerates one
// random stream into its private overlay (content from its own RNG, so
// the draw order is core-local and deterministic).
func (g *generator) pickStream() []uint64 {
	g.replays++
	if g.spec.ChurnEvery > 0 && g.replays%uint64(g.spec.ChurnEvery) == 0 {
		victim := g.rnd.Intn(len(g.lib.streams))
		if g.churned == nil {
			g.churned = make(map[int][]uint64)
		}
		g.churned[victim] = g.lib.streamContent(g.rnd, len(g.streamAt(victim)))
		g.lib.regenerated.Add(1)
	}
	return g.streamAt(g.lib.zipf.Sample(g.rnd))
}

// streamAt reads stream i through this core's churn overlay.
func (g *generator) streamAt(i int) []uint64 {
	if s, ok := g.churned[i]; ok {
		return s
	}
	return g.lib.streams[i]
}

// ReadFrame runs the emission state machine over the whole frame,
// scattering each record straight into the frame's columns. Workload
// generators never run dry, so the frame always fills completely.
func (g *generator) ReadFrame(f *Frame) int {
	n := f.cap
	var rec Record
	for i := 0; i < n; i++ {
		g.step(&rec)
		f.Block[i] = rec.Block
		f.PC[i] = rec.PC
		f.Instrs[i] = rec.Instrs
		f.Work[i] = rec.Work
		f.Dep[i] = rec.Dep
	}
	f.n = n
	return n
}

// step produces the next record.
//
// The emission alternates one compute record (a hot-set load that always
// hits the L1, carrying the gap cost) with a burst of 1..BurstMax memory
// records (small cost, so the ROB can overlap their misses).
func (g *generator) step(r *Record) {
	if g.burstLeft <= 0 {
		g.burstLeft = g.drawBurst()
		g.computeRecord(r)
		return
	}
	g.burstLeft--
	switch g.mode {
	case modeChase:
		g.nextChase(r)
	case modeScan:
		g.nextScan(r)
	default:
		g.nextIdle(r)
	}
	r.Instrs = g.spec.MemInstrs
	r.Work = g.spec.MemWork
}

// drawBurst samples a geometric burst length with mean BurstMean, capped
// at BurstMax.
func (g *generator) drawBurst() int {
	k := 1
	if g.spec.BurstMean <= 1 || g.spec.BurstMax <= 1 {
		return k
	}
	for k < g.spec.BurstMax && g.rnd.Draw(g.burstCont) {
		k++
	}
	return k
}

// computeRecord emits a hot-set load carrying the gap cost; the hot set is
// tiny and per-core, so after warm-up these always hit the L1 and never
// reach the prefetchers.
func (g *generator) computeRecord(r *Record) {
	hot := g.spec.HotBlocks
	if hot <= 0 {
		hot = 8
	}
	r.PC = g.hotPC
	r.Block = g.hotBase + g.hotIdx%uint64(hot)
	g.hotIdx++
	r.Dep = false
	j := 1.0
	if g.spec.WorkJitter > 0 {
		j = 1 - g.spec.WorkJitter + 2*g.spec.WorkJitter*g.rnd.Float64()
	}
	r.Instrs = uint32(float64(g.spec.GapInstrs)*j + 0.5)
	if r.Instrs == 0 {
		r.Instrs = 1
	}
	r.Work = uint32(float64(g.spec.GapWork)*j + 0.5)
	if r.Work == 0 {
		r.Work = 1
	}
}

func (g *generator) nextIdle(r *Record) {
	roll := g.rnd.Float64()
	switch {
	case roll < g.spec.ScanProb && g.spec.ScanBurst > 0:
		g.scanIdx = (g.scanIdx + 1) % len(g.scanPCs)
		g.scanLeft = g.spec.ScanBurst/2 + g.rnd.Intn(g.spec.ScanBurst+1)
		g.mode = modeScan
		g.nextScan(r)
	case roll < g.spec.ScanProb+g.spec.NoiseProb:
		g.noise(r)
	default:
		g.startChase()
		g.nextChase(r)
	}
}

func (g *generator) startChase() {
	if g.spec.IterStream {
		g.stream = g.iter
	} else {
		g.stream = g.pickStream()
	}
	g.pos = 0
	f := g.spec.ReplayMin
	frac := f + g.rnd.Float64()*(1-f)
	g.end = int(float64(len(g.stream)) * frac)
	if g.end < 1 {
		g.end = 1
	}
	g.mode = modeChase
}

func (g *generator) nextChase(r *Record) {
	if g.rnd.Draw(g.noiseInChase) {
		g.noise(r)
		return
	}
	if g.rnd.Draw(g.skip) {
		g.pos++
	}
	if g.pos >= g.end || g.pos >= len(g.stream) {
		g.mode = modeIdle
		g.nextIdle(r)
		return
	}
	r.PC = g.chasePC
	r.Block = g.stream[g.pos]
	r.Dep = g.rnd.Draw(g.depChase)
	g.pos++
	if g.pos >= g.end {
		g.mode = modeIdle
	}
}

func (g *generator) nextScan(r *Record) {
	i := g.scanIdx
	r.PC = g.scanPCs[i]
	r.Block = g.scanPos[i]
	r.Dep = false
	g.scanPos[i]++
	g.scanLeft--
	if g.scanLeft <= 0 {
		g.mode = modeIdle
	}
}

func (g *generator) noise(r *Record) {
	r.PC = g.noisePC + uint32(g.rnd.Intn(64))
	r.Block = noiseBase + g.rnd.Uint64n(noiseBlocks)
	r.Dep = g.rnd.Draw(g.depNoise)
}

// DirtyFrac exposes the workload's dirty-fill fraction for the simulator.
func DirtyFrac(s Spec) float64 { return s.DirtyFrac }
