// Package singletable implements the single-table address-correlating
// prefetcher family used as comparators: one set-associative main-memory
// correlation table whose entries map a miss address to a short, fixed
// list of successor addresses (§2, §3). EBCP and ULMT are configurations
// of this design: see the EBCP and ULMT constructors below.
//
// The defining limitation the paper targets: stream length is fixed by the
// entry format, so long temporal streams fragment into depth-sized pieces,
// each costing a fresh lookup (Fig. 6 right), and every update rewrites a
// whole entry (three memory accesses, Fig. 1 right).
package singletable

import (
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
)

// Config parameterizes the comparator.
type Config struct {
	Name  string
	Cores int
	// Entries caps the correlation table with global LRU replacement.
	Entries int
	// Depth is successors stored per entry (3–6 in published designs).
	Depth int
	// Skip drops the first Skip successors at prefetch time (EBCP's
	// epoch-skip: those would return during the lookup anyway).
	Skip int
	// LookupReads is memory reads per lookup (1 for both EBCP and ULMT).
	LookupReads int
	// UpdateReads and UpdateWrites are charged per committed entry
	// update ("three memory accesses per update": 2 reads + 1 write).
	UpdateReads  int
	UpdateWrites int
	// EpochLookup makes lookups fire only when no prefetches are in
	// flight for the core (EBCP's off-chip miss epochs) instead of on
	// every trigger miss (ULMT).
	EpochLookup bool
	// BufferBlocks is the per-core prefetch buffer capacity.
	BufferBlocks int
}

// EBCP returns the published cost model of the Epoch-Based Correlation
// Prefetcher (Chou, MICRO'07): lookups fire once per off-chip miss
// epoch, the entry format skips the successors that out-of-order
// execution would overlap with the lookup anyway (depth-6 entries, a
// 2-miss skip), and each update costs three memory accesses (§3,
// Fig. 1 right).
func EBCP(cores int) Config {
	return Config{
		Name:         "ebcp",
		Cores:        cores,
		Entries:      1 << 19,
		Depth:        6,
		Skip:         2,
		LookupReads:  1,
		UpdateReads:  2,
		UpdateWrites: 1,
		EpochLookup:  true,
		BufferBlocks: 32,
	}
}

// ULMT returns the published cost model of the User-Level Memory Thread
// prefetcher (Solihin, Lee & Torrellas, ISCA'02): a correlation table in
// main memory maintained by a helper thread at the memory controller —
// one lookup access per off-chip miss and three accesses per update,
// with short (depth-3) successor chains (§3, Fig. 1 right).
func ULMT(cores int) Config {
	return Config{
		Name:         "ulmt",
		Cores:        cores,
		Entries:      1 << 19,
		Depth:        3,
		Skip:         0,
		LookupReads:  1,
		UpdateReads:  2,
		UpdateWrites: 1,
		EpochLookup:  false,
		BufferBlocks: 32,
	}
}

type pending struct {
	key  uint64
	succ []uint64
}

// Prefetcher is the single-table comparator; implements prefetch.Temporal.
type Prefetcher struct {
	cfg Config
	env prefetch.Env

	table    *assocTable
	pendings [][]pending // per core: entries still collecting successors
	bufs     []*prefetch.Buffer
	inflight []int // per-core prefetches in flight (epoch detection)
	lookBusy []bool
	seq      uint64 // prefetch-batch tag for buffer eviction fairness

	st prefetch.EngineStats

	// UpdatesCommitted counts completed entry updates (each charged
	// UpdateReads+UpdateWrites accesses).
	UpdatesCommitted uint64
}

var _ prefetch.Temporal = (*Prefetcher)(nil)

// New builds the comparator over env.
func New(env prefetch.Env, cfg Config) *Prefetcher {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.LookupReads <= 0 {
		cfg.LookupReads = 1
	}
	if cfg.BufferBlocks <= 0 {
		cfg.BufferBlocks = 32
	}
	p := &Prefetcher{
		cfg:      cfg,
		env:      env,
		table:    newAssocTable(cfg.Entries),
		pendings: make([][]pending, cfg.Cores),
		inflight: make([]int, cfg.Cores),
		lookBusy: make([]bool, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		p.bufs = append(p.bufs, prefetch.NewBuffer(cfg.BufferBlocks))
	}
	return p
}

// Name identifies the comparator ("ebcp", "ulmt").
func (p *Prefetcher) Name() string { return p.cfg.Name }

// Stats returns engine-style counters.
func (p *Prefetcher) Stats() *prefetch.EngineStats { return &p.st }

// TableLen returns live correlation entries.
func (p *Prefetcher) TableLen() int { return p.table.len() }

// Probe services a demand L1 miss from the prefetch buffer.
func (p *Prefetcher) Probe(core int, blk uint64, w event.Handler, wkind uint8, wa, wb uint64) prefetch.ProbeResult {
	res, _, _ := p.bufs[core].Probe(blk, w, wkind, wa, wb)
	switch res.State {
	case prefetch.ProbeReady:
		p.st.FullHits++
	case prefetch.ProbeInFlight:
		p.st.PartialHits++
	}
	return res
}

// TriggerMiss performs the (possibly epoch-gated) table lookup and
// prefetches the entry's successors beyond the skip distance.
func (p *Prefetcher) TriggerMiss(core int, blk uint64) {
	// EBCP epochs: a lookup fires when no prefetches are currently in
	// flight for this core — approximating "outstanding off-chip misses
	// transitioned from zero to one" (§3).
	if p.cfg.EpochLookup && p.inflight[core] > 0 {
		return // mid-epoch
	}
	if p.lookBusy[core] {
		return
	}
	p.lookBusy[core] = true
	p.st.Lookups++
	p.env.MetaRead(dram.IndexLookup, func(uint64) {
		p.lookBusy[core] = false
		succ, ok := p.table.get(blk)
		if !ok {
			return
		}
		p.st.LookupHits++
		start := p.cfg.Skip
		if start > len(succ) {
			start = len(succ)
		}
		p.seq++
		buf := p.bufs[core]
		for _, s := range succ[start:] {
			if p.env.OnChip(core, s) || buf.Contains(s) {
				p.st.FilteredOnChip++
				continue
			}
			if !buf.HasSpaceFor(p.seq) || !buf.Insert(s, p.seq, 0) {
				break
			}
			p.st.IssuedPrefetches++
			p.inflight[core]++
			addr := s
			c := core
			p.env.Fetch(c, addr, func(t uint64) {
				p.inflight[c]--
				p.bufs[c].Arrived(addr, t)
			})
		}
	})
}

// Record trains the table: every recorded address opens a pending entry
// that collects the next Depth addresses; full entries commit with the
// published three-access update cost.
func (p *Prefetcher) Record(core int, blk uint64, prefetchHit bool) {
	pend := p.pendings[core]
	keep := pend[:0]
	for i := range pend {
		pend[i].succ = append(pend[i].succ, blk)
		if len(pend[i].succ) >= p.cfg.Depth {
			p.commit(pend[i])
		} else {
			keep = append(keep, pend[i])
		}
	}
	p.pendings[core] = keep
	if !prefetchHit {
		// Only genuine misses open entries: prefetched hits extend
		// successor lists but are already covered by an existing entry.
		p.pendings[core] = append(p.pendings[core], pending{
			key:  blk,
			succ: make([]uint64, 0, p.cfg.Depth),
		})
	}
}

func (p *Prefetcher) commit(e pending) {
	p.table.put(e.key, e.succ)
	p.UpdatesCommitted++
	for i := 0; i < p.cfg.UpdateReads; i++ {
		p.env.MetaRead(dram.IndexUpdateRd, nil)
	}
	for i := 0; i < p.cfg.UpdateWrites; i++ {
		p.env.MetaWrite(dram.IndexUpdateWr)
	}
}
