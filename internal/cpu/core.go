// Package cpu models the processor cores that drive the memory system.
//
// The paper simulates 4 GHz, 4-wide out-of-order cores with 96-entry ROBs
// (Table 1). For a prefetching study, the behaviours that matter are
// (a) how many off-chip misses a core can overlap (memory-level
// parallelism, bounded by the ROB window and by address dependences
// between loads) and (b) how memory stall time trades against on-chip
// compute time. This package implements a trace-driven core that captures
// exactly those: each trace record carries the dispatch-cycle cost and
// instruction count of the work preceding one load, plus a flag marking
// the load address-dependent on the previous load (pointer chasing).
//
// Loads issue at max(dispatch time, dependence resolution); the ROB admits
// at most Config.ROB instructions between the oldest incomplete load and
// the dispatch point; completed loads retire in order. The model is O(1)
// per record and, combined with the DRAM queueing model, reproduces the
// workload MLP spectrum of Table 2.
package cpu

import (
	"stms/internal/event"
	"stms/internal/trace"
)

// Config sets the core microarchitecture parameters.
type Config struct {
	// ROB is the reorder-buffer capacity in instructions (Table 1: 96).
	ROB int
	// Quantum bounds how many cycles of local dispatch time a core may run
	// ahead of global simulation time before yielding to the event engine.
	Quantum uint64
}

// DefaultConfig returns Table 1's core.
func DefaultConfig() Config { return Config{ROB: 96, Quantum: 256} }

// LoadResult is returned by a LoadFunc for requests whose latency is known
// immediately (cache hits, prefetch-buffer hits).
type LoadResult struct {
	// Sync is true when CompleteAt is valid; false when the completion
	// will be delivered through the done callback instead.
	Sync       bool
	CompleteAt uint64
}

// LoadFunc is the memory system seen by a core. The core calls it once per
// load with the issue time (which may be up to Quantum cycles ahead of
// engine time) and an opaque completion token. Implementations either
// resolve synchronously (returning Sync=true) or later call the core's
// Complete(token, t) exactly once with the completion time.
//
// The token replaces the per-load done closure of earlier versions: the
// memory system threads it (two machine words alongside the block number)
// through its own queues, so issuing a load allocates nothing.
type LoadFunc func(core int, pc uint32, blk uint64, issueAt uint64, token uint32) LoadResult

type robEntry struct {
	instrEnd uint64 // cumulative instruction index at this record's end
	complete bool
	compTime uint64
}

// Core is one trace-driven processor core.
type Core struct {
	id   int
	cfg  Config
	eng  *event.Engine
	src  trace.FrameSource
	load LoadFunc

	// The core consumes its trace frame-at-a-time: frame holds the
	// current batch of records (borrowed from src until the next
	// refill), fpos the next unread index. Reading a record is four
	// column loads — no per-record interface dispatch. framesRead
	// counts successful NextFrame calls so a checkpoint restore can
	// fast-forward a fresh deterministic source to the same frame.
	frame      *trace.Frame
	fpos       int
	framesRead uint64

	rec     trace.Record
	haveRec bool

	dispatch   uint64 // local dispatch clock
	dispatched uint64 // instructions dispatched
	retired    uint64 // instructions retired (committed)

	ring  []robEntry
	head  int
	tail  int
	count int

	lastIdx     int  // ring index of the most recent load
	haveLast    bool // whether lastIdx is valid (any load in flight or done)
	lastDone    bool
	lastDoneAt  uint64
	exhausted   bool
	stopped     bool
	paused      bool
	target      uint64 // committed-instruction target (absolute), 0 = none
	targetFired bool
	onTarget    func()

	// Stats.
	loads      uint64
	stallROB   uint64 // times dispatch blocked on a full ROB
	stallDep   uint64 // times dispatch blocked on an address dependence
	retireMark uint64 // committed-instruction snapshot for windowing
	finish     uint64 // latest load completion time retired so far
}

// NewFramed creates a core reading records frame-at-a-time from src and
// issuing loads via load. The core borrows each frame until it requests
// the next one; it never closes src.
func NewFramed(id int, cfg Config, eng *event.Engine, src trace.FrameSource, load LoadFunc) *Core {
	if cfg.ROB <= 0 {
		cfg.ROB = 96
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 256
	}
	return &Core{
		id:   id,
		cfg:  cfg,
		eng:  eng,
		src:  src,
		load: load,
		// Each record carries at least one instruction, so the ROB can
		// never hold more outstanding loads than instructions.
		ring: make([]robEntry, cfg.ROB+1),
	}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Committed returns total instructions retired.
func (c *Core) Committed() uint64 { return c.retired }

// Loads returns total loads issued.
func (c *Core) Loads() uint64 { return c.loads }

// MarkWindow snapshots the committed-instruction count; CommittedInWindow
// reports progress since the last mark. Used at the warm-up boundary.
func (c *Core) MarkWindow() { c.retireMark = c.retired }

// CommittedInWindow returns instructions committed since MarkWindow.
func (c *Core) CommittedInWindow() uint64 { return c.retired - c.retireMark }

// SetTarget arranges for fn to run once the core has committed n more
// instructions than the current window mark.
func (c *Core) SetTarget(n uint64, fn func()) {
	c.target = c.retireMark + n
	c.targetFired = false
	c.onTarget = fn
}

// Stop halts dispatch permanently (outstanding loads still complete).
func (c *Core) Stop() { c.stopped = true }

// Pause suspends dispatch until Resume. Outstanding loads still complete
// and are recorded, but nothing dispatches or retires while paused. Used
// by the sampling scheduler to line all cores up on the warm-up boundary
// so a measurement window loses no records to inter-core skew.
func (c *Core) Pause() { c.paused = true }

// Resume lifts a Pause and reschedules the dispatch loop. The local
// dispatch clock catches up to engine time on the next step, so paused
// cycles are not billed as work.
func (c *Core) Resume() {
	if c.paused {
		c.paused = false
		c.eng.ScheduleH(0, c, 0, 0, 0)
	}
}

// Exhausted reports whether the trace generator ran dry.
func (c *Core) Exhausted() bool { return c.exhausted }

// FinishTime returns the completion time of the latest retired load. For
// cores that ran ahead of the event engine on cache hits this is the
// faithful end-of-work time.
func (c *Core) FinishTime() uint64 { return c.finish }

// Start schedules the core's first dispatch step.
func (c *Core) Start() {
	c.eng.ScheduleH(0, c, 0, 0, 0)
}

// Handle implements event.Handler: every event a core schedules for
// itself is a dispatch step.
func (c *Core) Handle(now uint64, kind uint8, a, b uint64) { c.step() }

func (c *Core) retireHead() {
	e := &c.ring[c.head]
	c.retired = e.instrEnd
	if e.compTime > c.finish {
		c.finish = e.compTime
	}
	// Conditional wrap: the ring is ROB+1 entries, not a power of two, so
	// a modulo here would be an integer division on the hottest path.
	if c.head++; c.head == len(c.ring) {
		c.head = 0
	}
	c.count--
	if c.target != 0 && !c.targetFired && c.retired >= c.target {
		c.targetFired = true
		if c.onTarget != nil {
			c.onTarget()
		}
	}
}

// step advances the core: retire completed heads, dispatch records, issue
// loads. It returns when blocked (ROB, dependence), out of trace, or past
// the run-ahead quantum; completion callbacks and scheduled events resume
// it. Re-entry is always safe: every gate is re-evaluated from state.
func (c *Core) step() {
	for {
		if c.stopped || c.paused {
			return
		}
		now := c.eng.Now()
		if c.dispatch < now {
			c.dispatch = now
		}
		// Retire in order as far as completions in the local past allow.
		for c.count > 0 && c.ring[c.head].complete && c.ring[c.head].compTime <= c.dispatch {
			c.retireHead()
		}
		if !c.haveRec {
			if c.exhausted {
				// Re-entered by a completion after the source went dry:
				// keep retiring, never touch the source again.
				c.drainRetire()
				return
			}
			f := c.frame
			if f == nil || c.fpos == f.Len() {
				if f = c.src.NextFrame(); f == nil {
					c.exhausted = true
					c.frame = nil
					c.drainRetire()
					return
				}
				c.frame = f
				c.fpos = 0
				c.framesRead++
			}
			i := c.fpos
			c.fpos = i + 1
			c.rec.PC = f.PC[i]
			c.rec.Block = f.Block[i]
			c.rec.Dep = f.Dep[i]
			c.rec.Work = f.Work[i]
			c.rec.Instrs = f.Instrs[i]
			if c.rec.Instrs == 0 {
				c.rec.Instrs = 1
			}
			c.haveRec = true
		}
		// ROB gate: all of this record's instructions must fit between
		// the oldest unretired instruction and the dispatch point.
		if c.count > 0 && c.dispatched+uint64(c.rec.Instrs)-c.retired > uint64(c.cfg.ROB) {
			head := &c.ring[c.head]
			if !head.complete {
				c.stallROB++
				return // head completion will re-step
			}
			// Completed, but in the local future: dispatch stalls until
			// the head retires.
			if head.compTime > c.dispatch {
				c.stallROB++
				c.dispatch = head.compTime
			}
			c.retireHead()
			continue
		}
		// Dependence gate: a pointer-chasing load cannot issue (and, in
		// this model, dispatch does not run ahead of it) until the
		// previous load's value is available.
		if c.rec.Dep && c.haveLast && !c.lastDone {
			c.stallDep++
			return // dependence completion will re-step
		}
		// Dispatch the record's instructions.
		c.dispatch += uint64(c.rec.Work)
		c.dispatched += uint64(c.rec.Instrs)
		issue := c.dispatch
		if c.rec.Dep && c.haveLast && c.lastDoneAt > issue {
			issue = c.lastDoneAt
		}
		// Allocate the ROB entry before issuing so the completion
		// callback (which may fire synchronously from a nested event in
		// pathological cases) always finds its slot.
		idx := c.tail
		c.ring[idx] = robEntry{instrEnd: c.dispatched}
		if c.tail++; c.tail == len(c.ring) {
			c.tail = 0
		}
		c.count++
		c.lastIdx = idx
		c.haveLast = true
		c.lastDone = false
		c.loads++

		rec := c.rec
		c.haveRec = false
		res := c.load(c.id, rec.PC, rec.Block, issue, uint32(idx))
		if res.Sync {
			c.completeLoadInline(idx, res.CompleteAt)
		}
		// Yield if the local clock ran too far ahead of global time.
		if c.dispatch > now+c.cfg.Quantum {
			c.eng.AtH(c.dispatch, c, 0, 0, 0)
			return
		}
	}
}

// drainRetire retires all completed entries at end of trace, advancing the
// local clock through their completion times.
func (c *Core) drainRetire() {
	for c.count > 0 && c.ring[c.head].complete {
		if t := c.ring[c.head].compTime; t > c.dispatch {
			c.dispatch = t
		}
		c.retireHead()
	}
}

// completeLoadInline records completion without re-entering step (the
// caller is already inside step's loop).
func (c *Core) completeLoadInline(idx int, t uint64) {
	e := &c.ring[idx]
	e.complete = true
	e.compTime = t
	if idx == c.lastIdx {
		c.lastDone = true
		c.lastDoneAt = t
	}
}

// Complete is the asynchronous completion path: the memory system calls it
// with the token it received from LoadFunc once the load's data is
// available. It records completion and resumes dispatch, which may have
// been blocked on this load.
func (c *Core) Complete(token uint32, t uint64) {
	c.completeLoadInline(int(token), t)
	c.step()
}

// StallStats returns how often dispatch blocked on the ROB and on load
// dependences (for tests and diagnostics).
func (c *Core) StallStats() (rob, dep uint64) { return c.stallROB, c.stallDep }
