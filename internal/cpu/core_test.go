package cpu

import (
	"testing"

	"stms/internal/event"
	"stms/internal/trace"
)

// fixedMem resolves every load synchronously with a fixed latency.
type fixedMem struct {
	latency uint64
	loads   int
}

func (f *fixedMem) load(core int, pc uint32, blk uint64, issueAt uint64, token uint32) LoadResult {
	f.loads++
	return LoadResult{Sync: true, CompleteAt: issueAt + f.latency}
}

func runTrace(t *testing.T, recs []trace.Record, load LoadFunc) (*Core, *event.Engine) {
	t.Helper()
	eng := event.NewEngine()
	gen := &trace.SliceGenerator{Records: recs}
	c := NewFramed(0, Config{ROB: 96, Quantum: 256}, eng, trace.Frames(gen), load)
	c.Start()
	eng.Drain(nil)
	return c, eng
}

func rec(work, instrs uint32, dep bool) trace.Record {
	return trace.Record{PC: 1, Block: 1000, Dep: dep, Instrs: instrs, Work: work}
}

func TestPureComputeTiming(t *testing.T) {
	// 10 records, 10 cycles of work each, 2-cycle loads: the dispatch
	// clock should end near 100.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		r := rec(10, 40, false)
		r.Block = uint64(i * 100)
		recs = append(recs, r)
	}
	mem := &fixedMem{latency: 2}
	c, _ := runTrace(t, recs, mem.load)
	if c.Committed() != 400 {
		t.Fatalf("committed = %d, want 400", c.Committed())
	}
	// Last record dispatched at 100; its load completes at 102.
	if c.FinishTime() < 100 || c.FinishTime() > 110 {
		t.Fatalf("end time = %d, want ~102", c.FinishTime())
	}
	if mem.loads != 10 {
		t.Fatalf("loads = %d", mem.loads)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// Small work, long loads, all dependent: each load issues only after
	// the previous completes — total ≈ n × latency.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		r := rec(1, 4, i > 0)
		r.Block = uint64(i)
		recs = append(recs, r)
	}
	mem := &fixedMem{latency: 100}
	c, _ := runTrace(t, recs, mem.load)
	if c.FinishTime() < 1000 {
		t.Fatalf("dependent chain finished at %d, want >= 1000", c.FinishTime())
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Small records that fit many-at-a-time in the ROB with long loads:
	// loads overlap, so total << n × latency.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		r := rec(1, 4, false)
		r.Block = uint64(i)
		recs = append(recs, r)
	}
	mem := &fixedMem{latency: 100}
	c, _ := runTrace(t, recs, mem.load)
	if c.FinishTime() == 0 || c.FinishTime() > 300 {
		t.Fatalf("independent loads finished at %d, want well under 1000", c.FinishTime())
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// Each record is 48 instructions: only 2 fit in a 96-entry ROB, so
	// at most 2 loads overlap. With 10 loads of 100 cycles the total is
	// at least 5 × 100.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		r := rec(1, 48, false)
		r.Block = uint64(i)
		recs = append(recs, r)
	}
	mem := &fixedMem{latency: 100}
	c, _ := runTrace(t, recs, mem.load)
	if c.FinishTime() < 450 {
		t.Fatalf("ROB-limited run finished at %d, too much overlap", c.FinishTime())
	}
	robStalls, _ := c.StallStats()
	if robStalls == 0 {
		t.Fatal("expected ROB stalls")
	}
}

// asyncMem completes loads through Core.Complete after a delay on the
// engine, exercising the token path the timed simulator uses.
type asyncMem struct {
	eng     *event.Engine
	core    *Core
	latency uint64
}

func (a *asyncMem) load(core int, pc uint32, blk uint64, issueAt uint64, token uint32) LoadResult {
	a.eng.AtH(issueAt+a.latency, a, 0, uint64(token), 0)
	return LoadResult{}
}

// Handle completes the load whose token the event carries.
func (a *asyncMem) Handle(now uint64, _ uint8, token, _ uint64) {
	a.core.Complete(uint32(token), now)
}

func TestAsyncCompletionPath(t *testing.T) {
	eng := event.NewEngine()
	var recs []trace.Record
	for i := 0; i < 20; i++ {
		r := rec(5, 10, i%2 == 1)
		r.Block = uint64(i)
		recs = append(recs, r)
	}
	mem := &asyncMem{eng: eng, latency: 50}
	gen := &trace.SliceGenerator{Records: recs}
	c := NewFramed(0, DefaultConfig(), eng, trace.Frames(gen), mem.load)
	mem.core = c
	c.Start()
	eng.Drain(nil)
	if c.Committed() != 200 {
		t.Fatalf("committed = %d, want 200", c.Committed())
	}
	if !c.Exhausted() {
		t.Fatal("generator should be exhausted")
	}
}

func TestWindowAccounting(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(10, 10, false))
	}
	mem := &fixedMem{latency: 2}
	eng := event.NewEngine()
	gen := &trace.SliceGenerator{Records: recs}
	c := NewFramed(0, DefaultConfig(), eng, trace.Frames(gen), mem.load)
	c.Start()
	eng.Drain(nil)
	c.MarkWindow()
	if c.CommittedInWindow() != 0 {
		t.Fatal("window should be empty after mark")
	}
}

func TestTargetCallback(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, rec(10, 10, false))
	}
	mem := &fixedMem{latency: 2}
	eng := event.NewEngine()
	gen := &trace.SliceGenerator{Records: recs}
	c := NewFramed(0, DefaultConfig(), eng, trace.Frames(gen), mem.load)
	fired := false
	var committedAtFire uint64
	c.SetTarget(500, func() {
		fired = true
		committedAtFire = c.Committed()
	})
	c.Start()
	eng.Drain(nil)
	if !fired {
		t.Fatal("target callback never fired")
	}
	if committedAtFire < 500 {
		t.Fatalf("fired at %d committed, want >= 500", committedAtFire)
	}
}

func TestStopHaltsDispatch(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, rec(10, 10, false))
	}
	mem := &fixedMem{latency: 2}
	eng := event.NewEngine()
	gen := &trace.SliceGenerator{Records: recs}
	c := NewFramed(0, DefaultConfig(), eng, trace.Frames(gen), mem.load)
	c.SetTarget(100, func() { c.Stop() })
	c.Start()
	eng.Drain(nil)
	if c.Committed() >= 10000 {
		t.Fatal("core did not stop")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() (uint64, uint64) {
		eng := event.NewEngine()
		var recs []trace.Record
		for i := 0; i < 500; i++ {
			r := rec(uint32(1+i%7), uint32(4+i%13), i%3 == 0)
			r.Block = uint64(i % 97)
			recs = append(recs, r)
		}
		mem := &asyncMem{eng: eng, latency: 80}
		gen := &trace.SliceGenerator{Records: recs}
		c := NewFramed(0, DefaultConfig(), eng, trace.Frames(gen), mem.load)
		mem.core = c
		c.Start()
		eng.Drain(nil)
		return c.Committed(), eng.Now()
	}
	c1, t1 := build()
	c2, t2 := build()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, t1, c2, t2)
	}
}

func TestZeroInstrRecordClamped(t *testing.T) {
	recs := []trace.Record{{PC: 1, Block: 1, Instrs: 0, Work: 5}}
	mem := &fixedMem{latency: 2}
	c, _ := runTrace(t, recs, mem.load)
	if c.Committed() != 1 {
		t.Fatalf("committed = %d, want clamped 1", c.Committed())
	}
}

// TestPauseResume covers the sampling barrier's core-side contract:
// Pause parks dispatch exactly where it is (in-flight loads still
// complete, nothing retires), and Resume picks the trace back up and
// finishes it — committing exactly what an unpaused run commits.
func TestPauseResume(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 20; i++ {
		r := rec(5, 10, false)
		r.Block = uint64(i * 100)
		recs = append(recs, r)
	}
	mem := &fixedMem{latency: 3}
	eng := event.NewEngine()
	c := NewFramed(0, Config{ROB: 96, Quantum: 256}, eng, trace.Frames(&trace.SliceGenerator{Records: recs}), mem.load)
	c.Pause()
	c.Start()
	eng.Drain(nil)
	if c.Committed() != 0 || mem.loads != 0 {
		t.Fatalf("paused core made progress: committed %d, loads %d", c.Committed(), mem.loads)
	}
	c.Resume()
	eng.Drain(nil)
	if c.Committed() != 200 {
		t.Fatalf("resumed core committed %d instructions, want 200", c.Committed())
	}
	if mem.loads != 20 {
		t.Fatalf("resumed core issued %d loads, want 20", mem.loads)
	}
	// Resume on a never-paused core is a no-op.
	c.Resume()
	eng.Drain(nil)
	if c.Committed() != 200 {
		t.Fatalf("idempotent resume changed commit count to %d", c.Committed())
	}
}
