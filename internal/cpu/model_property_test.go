package cpu

import (
	"testing"

	"stms/internal/event"
	"stms/internal/trace"
)

// Property checks on the core's timing model.

// TestIPCNeverExceedsWorkBound: total cycles can never be less than the
// total dispatch work of the records, whatever the memory behaviour.
func TestIPCNeverExceedsWorkBound(t *testing.T) {
	seeds := []uint64{1, 7, 31, 101}
	for _, seed := range seeds {
		var recs []trace.Record
		var totalWork uint64
		x := seed
		rnd := func(n uint64) uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x % n
		}
		for i := 0; i < 2000; i++ {
			r := trace.Record{
				PC:     uint32(rnd(64)),
				Block:  rnd(1 << 20),
				Dep:    rnd(3) == 0,
				Instrs: uint32(1 + rnd(64)),
				Work:   uint32(1 + rnd(100)),
			}
			totalWork += uint64(r.Work)
			recs = append(recs, r)
		}
		eng := event.NewEngine()
		mem := &asyncMem{eng: eng, latency: uint64(20 + rnd(200))}
		c := NewFramed(0, DefaultConfig(), eng, trace.Frames(&trace.SliceGenerator{Records: recs}), mem.load)
		mem.core = c
		c.Start()
		eng.Drain(nil)
		if c.FinishTime() < totalWork {
			t.Fatalf("seed %d: finish %d below total dispatch work %d",
				seed, c.FinishTime(), totalWork)
		}
		var totalInstrs uint64
		for _, r := range recs {
			totalInstrs += uint64(r.Instrs)
		}
		if c.Committed() != totalInstrs {
			t.Fatalf("seed %d: committed %d != %d", seed, c.Committed(), totalInstrs)
		}
	}
}

// TestLatencyMonotonicity: raising memory latency can never finish the
// same trace earlier.
func TestLatencyMonotonicity(t *testing.T) {
	build := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 1000; i++ {
			recs = append(recs, trace.Record{
				PC: 1, Block: uint64(i * 17 % 257), Dep: i%4 == 0,
				Instrs: 8, Work: 5,
			})
		}
		return recs
	}
	var prev uint64
	for _, lat := range []uint64{10, 50, 150, 400} {
		eng := event.NewEngine()
		mem := &asyncMem{eng: eng, latency: lat}
		c := NewFramed(0, DefaultConfig(), eng, trace.Frames(&trace.SliceGenerator{Records: build()}), mem.load)
		mem.core = c
		c.Start()
		eng.Drain(nil)
		if c.FinishTime() < prev {
			t.Fatalf("latency %d finished at %d, earlier than a faster memory (%d)",
				lat, c.FinishTime(), prev)
		}
		prev = c.FinishTime()
	}
}

// TestSmallerROBNeverFaster: shrinking the ROB cannot speed up a trace of
// independent misses.
func TestSmallerROBNeverFaster(t *testing.T) {
	build := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 500; i++ {
			recs = append(recs, trace.Record{
				PC: 1, Block: uint64(i), Instrs: 12, Work: 3,
			})
		}
		return recs
	}
	run := func(rob int) uint64 {
		eng := event.NewEngine()
		mem := &asyncMem{eng: eng, latency: 180}
		c := NewFramed(0, Config{ROB: rob, Quantum: 256}, eng, trace.Frames(&trace.SliceGenerator{Records: build()}), mem.load)
		mem.core = c
		c.Start()
		eng.Drain(nil)
		return c.FinishTime()
	}
	prev := uint64(0)
	for _, rob := range []int{192, 96, 48, 24} {
		ft := run(rob)
		if ft < prev {
			t.Fatalf("ROB %d finished at %d, faster than a larger ROB (%d)", rob, ft, prev)
		}
		prev = ft
	}
	if run(24) <= run(192) {
		t.Fatal("a 24-entry ROB should be strictly slower than 192 on independent misses")
	}
}

// TestQuantumDoesNotChangeResults: the run-ahead quantum is a simulation
// parameter, not a microarchitectural one; results must not depend on it.
func TestQuantumDoesNotChangeResults(t *testing.T) {
	build := func() []trace.Record {
		var recs []trace.Record
		for i := 0; i < 800; i++ {
			recs = append(recs, trace.Record{
				PC: 1, Block: uint64(i % 97), Dep: i%5 == 0, Instrs: 10, Work: 7,
			})
		}
		return recs
	}
	run := func(q uint64) (uint64, uint64) {
		eng := event.NewEngine()
		mem := &asyncMem{eng: eng, latency: 120}
		c := NewFramed(0, Config{ROB: 96, Quantum: q}, eng, trace.Frames(&trace.SliceGenerator{Records: build()}), mem.load)
		mem.core = c
		c.Start()
		eng.Drain(nil)
		return c.Committed(), c.FinishTime()
	}
	c1, f1 := run(64)
	c2, f2 := run(1024)
	if c1 != c2 || f1 != f2 {
		t.Fatalf("quantum changed results: (%d,%d) vs (%d,%d)", c1, f1, c2, f2)
	}
}
