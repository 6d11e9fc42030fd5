package lab

// The session tape store: run-matrix cells that share a trace identity
// — (scaled spec or scenario, seed, cores, records per core) — replay
// one columnar trace.Tape instead of re-deriving the record stream per
// variant. A Fig. 8-style matrix of 8 workloads × N variants
// materializes 8 tapes, and the baseline/ideal/stms cells of a row
// replay the same memory.
//
// The store itself is dist.Store — the content-addressed two-tier
// (memory LRU → on-disk STMSTAPE directory) store the distributed
// lab's workers share — so a session given WithTapeDir persists its
// tapes across process restarts and alongside any worker pointed at
// the same directory. Identities are hashed by dist.TapeKey, the same
// address a worker computes for the same cell, fleet-wide.

import (
	"sync/atomic"
	"time"
)

// defaultTapeCacheBytes bounds the memory tier when WithTapeCache is
// not given: comfortably above a full paper matrix (a 200k-records/core
// × 4-core tape encodes to ~7 MB) without threatening small machines.
const defaultTapeCacheBytes = 512 << 20

// TapeStats reports the session's tape-store and wall-time accounting.
type TapeStats struct {
	Hits       uint64 // cells served an existing (or in-flight) tape
	Misses     uint64 // cells that initiated a resolution
	Builds     uint64 // completed builds (including failed ones)
	Evictions  uint64 // tapes dropped by the memory byte budget
	DiskHits   uint64 // resolutions served by the on-disk tier
	BytesInUse int64  // current memory-tier tape footprint

	// Generate is cumulative tape-build wall time; Simulate is
	// cumulative cell simulation wall time excluding tape access. The
	// pair splits a run's cost into "materialize the workload once" vs
	// "simulate the system".
	Generate time.Duration
	Simulate time.Duration
}

// TapeStats returns a snapshot of the session's tape accounting. A lab
// created with tape caching disabled reports zeroes except Simulate.
func (l *Lab) TapeStats() TapeStats {
	s := TapeStats{Simulate: time.Duration(atomic.LoadInt64(&l.simNS))}
	if l.tapes != nil {
		st := l.tapes.Stats()
		s.Hits, s.Misses, s.Builds, s.Evictions = st.Hits, st.Misses, st.Builds, st.Evictions
		s.DiskHits = st.DiskHits
		s.BytesInUse = st.BytesInUse
		s.Generate = st.BuildTime
	}
	return s
}
