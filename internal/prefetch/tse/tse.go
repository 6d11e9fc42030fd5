// Package tse models the Temporal Streaming Engine (Wenisch et al.,
// ISCA'05) as a traffic/latency comparator for Figure 1 (right).
//
// TSE is a split-table temporal streaming design like STMS, but its
// main-memory meta-data lacks the paper's two optimizations:
//
//   - lookups walk coherence-embedded structures costing three memory
//     round-trips per lookup instead of STMS's two (§3, §5.4);
//   - every off-chip miss and prefetched hit updates the index —
//     "slightly over one memory access per update" with no sampling (§3).
//
// Functionally it stores the same split index/history meta-data, so its
// coverage tracks idealized TMS; only latency and bandwidth differ. The
// implementation therefore wraps the idealized backend for storage and
// charges TSE's published access counts against the Env.
package tse

import (
	"stms/internal/dram"
	"stms/internal/prefetch"
	"stms/internal/prefetch/ghb"
)

// Config sizes the TSE comparator.
type Config struct {
	Cores int
	// HistoryEntries is the per-core history capacity.
	HistoryEntries uint64
	// LookupReads is the memory round-trips per index lookup (3).
	LookupReads int
}

// DefaultConfig returns the published TSE cost model.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores, HistoryEntries: 1 << 21, LookupReads: 3}
}

// Meta implements prefetch.Metadata with TSE's costs.
type Meta struct {
	cfg   Config
	env   prefetch.Env
	inner *ghb.Meta
	wc    []int

	// Stats.
	Lookups       uint64
	HistoryReads  uint64
	UpdateWrites  uint64
	HistoryWrites uint64
}

var _ prefetch.Metadata = (*Meta)(nil)

// NewMeta builds the TSE meta-data model over env.
func NewMeta(env prefetch.Env, cfg Config) *Meta {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.LookupReads <= 0 {
		cfg.LookupReads = 3
	}
	if cfg.HistoryEntries == 0 {
		cfg.HistoryEntries = 1 << 21
	}
	return &Meta{
		cfg: cfg,
		env: env,
		inner: ghb.New(env, ghb.Config{
			Cores:          cfg.Cores,
			HistoryEntries: cfg.HistoryEntries,
		}),
		wc: make([]int, cfg.Cores),
	}
}

// New builds the complete TSE comparator (meta-data + stream engine).
func New(env prefetch.Env, cfg Config, ecfg prefetch.EngineConfig) (*prefetch.Engine, *Meta) {
	m := NewMeta(env, cfg)
	return prefetch.NewEngine(env, m, ecfg), m
}

// Name identifies the backend.
func (m *Meta) Name() string { return "tse" }

// Lookup chains LookupReads dependent memory reads, then resolves. As in
// STMS, the pointer is captured at issue time, before the triggering miss
// itself is recorded. The inner backend's cursor is per-Meta scratch, so
// it is copied before the simulated round-trips.
func (m *Meta) Lookup(core int, blk uint64, done func(*prefetch.Cursor)) {
	m.Lookups++
	var curv prefetch.Cursor
	found := false
	if c := m.inner.LookupSync(core, blk); c != nil {
		curv, found = *c, true
	}
	remaining := m.cfg.LookupReads
	var step func(uint64)
	step = func(uint64) {
		remaining--
		if remaining > 0 {
			m.env.MetaRead(dram.IndexLookup, step)
			return
		}
		if found {
			done(&curv)
		} else {
			done(nil)
		}
	}
	m.env.MetaRead(dram.IndexLookup, step)
}

// ReadNext reads one history line per memory access, like any split-table
// design. The cursor position is captured at call time per the Metadata
// contract (the caller may retarget its cursor while the read is in
// flight).
func (m *Meta) ReadNext(cur *prefetch.Cursor, max int, done func(addrs, positions []uint64, marked bool, markAddr uint64)) {
	if cur.Pos >= m.inner.History(cur.Core).Head() {
		done(nil, nil, false, 0)
		return
	}
	m.HistoryReads++
	snap := *cur
	m.env.MetaRead(dram.HistoryRead, func(uint64) {
		done(m.inner.ReadNextSync(&snap, max))
	})
}

// SkipMark advances past an end annotation.
func (m *Meta) SkipMark(cur *prefetch.Cursor) { m.inner.SkipMark(cur) }

// Record appends to the history (packed line writes) and performs an
// unsampled index update costing about one memory access (§3).
func (m *Meta) Record(core int, blk uint64, prefetchHit bool) {
	m.inner.Record(core, blk, prefetchHit)
	m.wc[core]++
	if m.wc[core] >= prefetch.LineEntries {
		m.wc[core] = 0
		m.HistoryWrites++
		m.env.MetaWrite(dram.HistoryAppend)
	}
	m.UpdateWrites++
	m.env.MetaWrite(dram.IndexUpdateWr)
}

// MarkEnd annotates end-of-stream; TSE's mechanism also writes meta-data.
func (m *Meta) MarkEnd(core int, pos uint64) {
	m.inner.MarkEnd(core, pos)
	m.env.MetaWrite(dram.EndMarkWrite)
}
