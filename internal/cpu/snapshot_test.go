package cpu

import (
	"bytes"
	"errors"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/event"
	"stms/internal/trace"
)

// snapRecords is a three-frame trace of mixed dependent and independent
// loads.
func snapRecords() []trace.Record {
	recs := make([]trace.Record, 3*trace.FrameCap)
	for i := range recs {
		recs[i] = trace.Record{PC: uint32(i % 7), Block: uint64(i), Dep: i%5 == 0, Instrs: 4, Work: 3}
	}
	return recs
}

// snapCore returns a core over snapRecords: run until loads are in
// flight in its second frame when midRun, fresh otherwise.
func snapCore(midRun bool) *Core {
	eng := event.NewEngine()
	mem := &asyncMem{eng: eng, latency: 50}
	c := NewFramed(0, DefaultConfig(), eng, trace.Frames(&trace.SliceGenerator{Records: snapRecords()}), mem.load)
	mem.core = c
	if midRun {
		c.Start()
		for c.Loads() < trace.FrameCap+100 && eng.Step() {
		}
	}
	return c
}

func coreSnapshot(c *Core) []byte {
	enc := ckpt.NewEncoder()
	c.Snapshot(enc)
	return enc.Payload()
}

// TestCoreRestoreRejectsImpossibleState: a snapshot whose ROB indices,
// occupancy or trace position cannot describe a core is rejected with
// ckpt.ErrCorrupt and leaves the restoring core as it was (an accepted
// one would index past the ring or the frame once the core steps); a
// valid one restores to the same snapshot bytes.
func TestCoreRestoreRejectsImpossibleState(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(c *Core)
	}{
		{"ROB head past the ring", func(c *Core) { c.head = len(c.ring) }},
		{"negative ROB tail", func(c *Core) { c.tail = -1 }},
		{"last load past the ring", func(c *Core) { c.lastIdx = len(c.ring) + 3 }},
		{"occupancy disagrees with head and tail", func(c *Core) { c.count = (c.count + 1) % len(c.ring) }},
		{"negative occupancy", func(c *Core) { c.count = -1 }},
		{"occupancy of the whole ring", func(c *Core) { c.head, c.tail, c.count = 4, 4, len(c.ring) }},
		{"negative frame position", func(c *Core) { c.fpos = -1 }},
		{"frame position past the frame", func(c *Core) { c.fpos = c.frame.Len() + 1 }},
		{"snapshot of another core", func(c *Core) { c.id = 1 }},
		{"ROB ring of the wrong length", func(c *Core) { c.ring = c.ring[:5] }},
		{"more frames than the source holds", func(c *Core) { c.framesRead += 10 }},
	} {
		bad := snapCore(true)
		tc.bad(bad)
		target := snapCore(false)
		before := coreSnapshot(target)
		err := target.Restore(ckpt.NewDecoder(coreSnapshot(bad)))
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", tc.name, err)
		}
		if err == nil {
			// An accepted snapshot must at least run.
			target.Start()
			target.eng.Drain(nil)
			continue
		}
		if !bytes.Equal(coreSnapshot(target), before) {
			t.Errorf("%s: a rejected Restore changed the core", tc.name)
		}
	}
	src := snapCore(true)
	if src.count == 0 || src.framesRead != 2 {
		t.Fatalf("mid-run core holds %d loads in frame %d, want some in frame 2", src.count, src.framesRead)
	}
	r := snapCore(false)
	if err := r.Restore(ckpt.NewDecoder(coreSnapshot(src))); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if !bytes.Equal(coreSnapshot(r), coreSnapshot(src)) {
		t.Fatal("restored core snapshots differently")
	}
}
