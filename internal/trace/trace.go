// Package trace defines the memory-reference trace model and the synthetic
// workload generators that stand in for the paper's commercial and
// scientific applications.
//
// The paper drives its simulator with Oracle, DB2, Apache, Zeus, TPC-H and
// three scientific codes running under Solaris — none of which can be
// rehosted here. Temporal-streaming prefetchers, however, are sensitive
// only to the structure of the miss-address sequence and to the dependence
// structure that sets memory-level parallelism. Each generator therefore
// synthesizes a reference stream with independently controllable:
//
//   - a library of temporal streams (recurring block sequences) with a
//     heavy-tailed length distribution and Zipf-distributed recurrence —
//     the pointer-chasing working set (Fig. 6 left);
//   - non-repeating "noise" references (data visited once) that bound
//     achievable coverage, as in DSS (Fig. 4);
//   - sequential scans, which the baseline stride prefetcher covers and
//     which therefore must not count toward temporal coverage (§5.1);
//   - per-record instruction counts and dispatch-cycle costs that set how
//     memory-bound the workload is (Fig. 4 right);
//   - address dependences between loads that set MLP (Table 2);
//   - stream replay truncation/perturbation and library churn, which set
//     reuse distances and meta-data footprints (Fig. 5).
//
// Generators are deterministic: the same spec, seed and core produce the
// same record sequence on every run. Every record source — live
// generator, scenario, tape cursor, trace file, ChampSim import — is
// read a frame at a time (frame.go), and its sequence does not depend
// on the capacity of the frames it fills.
//
// Beyond the stationary Table 1 specs, the package models workload
// behavior over time with phase-structured Scenarios (scenario.go):
// ordered phase lists with per-core mixes, gradual drift, and stream
// reseeding, materialized with the same purity guarantee — the same
// scenario, seed and core produce the same record sequence, live or
// replayed from a tape. suite.go holds the built-in stress scenarios.
package trace

// Record is one memory reference plus the work preceding it.
type Record struct {
	// PC identifies the static load for PC-indexed predictors (the stride
	// prefetcher); synthetic but stable per logical access stream.
	PC uint32
	// Block is the 64-byte block number referenced.
	Block uint64
	// Dep marks the load's address as dependent on the previous load
	// (pointer chasing): it cannot issue before that load completes.
	Dep bool
	// Instrs is the number of instructions this record represents
	// (including the load); used for IPC accounting.
	Instrs uint32
	// Work is the dispatch-cycle cost of those instructions, including
	// on-chip stalls not modelled elsewhere (L1/L2-hit latency already
	// spent, branch mispredictions, coherence, ...).
	Work uint32
}

// Generator produces a stream of records a frame at a time: ReadFrame
// fills up to f.Cap() records into f's columns, sets f.Len, and returns
// the count. Zero means the source ran dry; generators for the paper's
// workloads never run dry and always fill the whole frame, but bounded
// generators (tests, file replay) may run dry and may return short
// frames. A source's record sequence does not depend on the capacities
// of the frames it fills.
type Generator interface {
	ReadFrame(f *Frame) int
}

// SliceGenerator replays a fixed record slice (testing helper).
type SliceGenerator struct {
	Records []Record
	pos     int
}

// ReadFrame scatters the next run of records into f's columns.
func (s *SliceGenerator) ReadFrame(f *Frame) int {
	n := min(len(s.Records)-s.pos, f.cap)
	for i, rec := range s.Records[s.pos : s.pos+n] {
		f.Block[i] = rec.Block
		f.PC[i] = rec.PC
		f.Instrs[i] = rec.Instrs
		f.Work[i] = rec.Work
		f.Dep[i] = rec.Dep
	}
	s.pos += n
	f.n = n
	return n
}

// Limit wraps a generator and stops it after N records.
type Limit struct {
	Gen Generator
	N   uint64
}

// ReadFrame shrinks the frame to the remaining budget and fills it
// through the wrapped generator, so the wrapped generator never reads
// past the budget. The budget is consumed only by records actually
// produced: if the wrapped generator runs dry, N still reports exactly
// how many records remain unclaimed (bounded replay relies on this for
// exact remaining counts).
func (l *Limit) ReadFrame(f *Frame) int {
	if l.N == 0 {
		f.n = 0
		return 0
	}
	saved := f.cap
	if uint64(saved) > l.N {
		f.cap = int(l.N)
	}
	n := l.Gen.ReadFrame(f)
	f.cap = saved
	l.N -= uint64(n)
	return n
}

// Err forwards the wrapped generator's failure state (ErrReporter), so
// bounding a fallible source does not hide its death from the frame
// source's end-of-stream/error distinction.
func (l *Limit) Err() error { return genErr(l.Gen) }
