// Package ghb implements the idealized temporal memory streaming
// predictor: a Global-History-Buffer-organized (split index + history)
// address-correlating prefetcher whose meta-data lives in "magic" on-chip
// storage with zero lookup latency and zero memory traffic (§5.2).
//
// The same implementation, with its capacity knobs, also provides the
// paper's meta-data sizing sweeps:
//
//   - Figure 1 (left): index capped at N entries with global LRU
//     replacement, history unbounded;
//   - Figure 5 (left): history capped, index unbounded;
//   - Figure 6: depth caps are applied by the stream engine, and
//     stream-length statistics fall out of engine bookkeeping.
package ghb

import (
	"stms/internal/prefetch"
)

// Config sizes the idealized predictor's meta-data.
type Config struct {
	Cores int
	// HistoryEntries is the per-core history capacity in entries. Use
	// Unbounded for the idealized predictor.
	HistoryEntries uint64
	// IndexEntries caps the index at a total entry count with global LRU
	// replacement; 0 means unbounded (perfect index).
	IndexEntries uint64
}

// Unbounded is a history capacity that no experiment in this repository
// can fill; it stands in for the paper's "impractically large storage".
const Unbounded = uint64(1) << 34

// DefaultConfig returns the idealized predictor of §5.2.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores, HistoryEntries: Unbounded}
}

// packed index value: owner core in the top byte, position below.
func pack(core int, pos uint64) uint64 { return uint64(core)<<56 | pos }
func unpack(v uint64) (core int, pos uint64) {
	return int(v >> 56), v & (1<<56 - 1)
}

// Meta is the idealized Metadata backend. Every operation is synchronous
// and traffic-free.
type Meta struct {
	cfg  Config
	hist []*prefetch.History
	idx  index

	// scratch backs the transient results of LookupSync and ReadNextSync.
	// Both are synchronous — the caller consumes the result before any
	// other operation can run — so one set per Meta suffices and the hot
	// path allocates nothing. Asynchronous wrappers (TSE) must copy.
	scratchCur  prefetch.Cursor
	scratchLine prefetch.Line

	// Stats.
	Records     uint64
	IndexStale  uint64 // lookups that found a wrapped/overwritten pointer
	IndexHits   uint64
	IndexMisses uint64
}

var _ prefetch.Metadata = (*Meta)(nil)

// New builds the idealized backend. env is consulted only for shared
// history logs (prefetch.LogSharer) and may be nil.
func New(env prefetch.Env, cfg Config) *Meta {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.HistoryEntries == 0 {
		cfg.HistoryEntries = Unbounded
	}
	return &Meta{
		cfg:  cfg,
		hist: prefetch.Histories(env, cfg.Cores, cfg.HistoryEntries),
		idx:  newIndex(cfg.IndexEntries),
	}
}

// Name identifies the backend.
func (m *Meta) Name() string { return "ideal-tms" }

// History exposes a core's history buffer (tests, harness).
func (m *Meta) History(core int) *prefetch.History { return m.hist[core] }

// IndexLen returns the live index entry count.
func (m *Meta) IndexLen() int { return m.idx.len() }

// Hint asks the host to start loading the index slots a miss on blk will
// look up and record. It changes no state.
func (m *Meta) Hint(blk uint64) { m.idx.hint(blk) }

// LookupSync resolves a lookup immediately (zero-latency on-chip
// meta-data). It returns nil when blk is unknown or its pointer went
// stale. Shared with backends that reuse ideal storage but charge their
// own traffic (e.g., TSE). The cursor points into per-Meta scratch: it is
// valid until the next LookupSync, and callers that hold it across
// simulated time must copy it.
func (m *Meta) LookupSync(core int, blk uint64) *prefetch.Cursor {
	v, ok := m.idx.get(blk)
	if !ok {
		m.IndexMisses++
		return nil
	}
	owner, pos := unpack(v)
	got, _, live := m.hist[owner].Get(pos)
	if !live || got != blk {
		m.IndexStale++
		m.idx.remove(blk)
		return nil
	}
	m.IndexHits++
	m.scratchCur = prefetch.Cursor{Core: owner, Pos: pos + 1}
	return &m.scratchCur
}

// Lookup implements prefetch.Metadata synchronously.
func (m *Meta) Lookup(core int, blk uint64, done func(*prefetch.Cursor)) {
	done(m.LookupSync(core, blk))
}

// ReadNextSync is the synchronous line read shared with reusing backends.
// Per the Metadata contract the cursor is not advanced and the returned
// slices (per-Meta scratch) are valid only until the next read.
func (m *Meta) ReadNextSync(cur *prefetch.Cursor, max int) (addrs, positions []uint64, marked bool, markAddr uint64) {
	h := m.hist[cur.Core]
	n, marked, markAddr := h.ReadLine(cur.Pos, max, &m.scratchLine)
	return m.scratchLine.Addrs[:n], m.scratchLine.Positions[:n], marked, markAddr
}

// ReadNext implements prefetch.Metadata synchronously.
func (m *Meta) ReadNext(cur *prefetch.Cursor, max int, done func(addrs, positions []uint64, marked bool, markAddr uint64)) {
	done(m.ReadNextSync(cur, max))
}

// SkipMark advances the cursor past the annotated entry.
func (m *Meta) SkipMark(cur *prefetch.Cursor) { cur.Pos++ }

// Record appends to the owning core's history and updates the index.
func (m *Meta) Record(core int, blk uint64, prefetchHit bool) {
	m.Records++
	pos := m.hist[core].Append(blk)
	m.idx.put(blk, pack(core, pos))
}

// MarkEnd annotates the entry at pos in core's history.
func (m *Meta) MarkEnd(core int, pos uint64) {
	m.hist[core].Mark(pos)
}
