package cpu

import (
	"fmt"

	"stms/internal/ckpt"
)

// Snapshot serializes the core's full dispatch state: trace cursor
// (frame count + intra-frame position + staged record), ROB ring,
// clocks and counters. The trace itself is not stored — generation is
// deterministic per (spec, seed, core), so Restore fast-forwards a
// fresh source by the recorded frame count.
func (c *Core) Snapshot(enc *ckpt.Encoder) {
	enc.Section("cpu.Core")
	enc.Int(c.id)
	enc.U64(c.framesRead)
	enc.Bool(c.frame != nil)
	enc.Int(c.fpos)
	enc.U32(c.rec.PC)
	enc.U64(c.rec.Block)
	enc.Bool(c.rec.Dep)
	enc.U32(c.rec.Work)
	enc.U32(c.rec.Instrs)
	enc.Bool(c.haveRec)
	enc.U64(c.dispatch)
	enc.U64(c.dispatched)
	enc.U64(c.retired)
	enc.Int(len(c.ring))
	for i := range c.ring {
		e := &c.ring[i]
		enc.U64(e.instrEnd)
		enc.Bool(e.complete)
		enc.U64(e.compTime)
	}
	enc.Int(c.head)
	enc.Int(c.tail)
	enc.Int(c.count)
	enc.Int(c.lastIdx)
	enc.Bool(c.haveLast)
	enc.Bool(c.lastDone)
	enc.U64(c.lastDoneAt)
	enc.Bool(c.exhausted)
	enc.Bool(c.stopped)
	enc.U64(c.target)
	enc.Bool(c.targetFired)
	enc.U64(c.loads)
	enc.U64(c.stallROB)
	enc.U64(c.stallDep)
	enc.U64(c.retireMark)
	enc.U64(c.finish)
}

// Restore rebuilds the core from a Snapshot. The core must be freshly
// constructed (NewFramed) over a source that regenerates the identical
// frame sequence; Restore replays NextFrame to the checkpointed frame.
// The onTarget callback is not serialized; a restored core has none.
func (c *Core) Restore(dec *ckpt.Decoder) error {
	dec.Section("cpu.Core")
	id := dec.Int()
	framesRead := dec.U64()
	hadFrame := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if id != c.id {
		return fmt.Errorf("cpu: snapshot is for core %d, restoring core %d", id, c.id)
	}
	for i := uint64(0); i < framesRead; i++ {
		f := c.src.NextFrame()
		if f == nil {
			return fmt.Errorf("cpu: core %d source ran dry after %d frames, snapshot needs %d", c.id, i, framesRead)
		}
		c.frame = f
	}
	c.framesRead = framesRead
	if !hadFrame {
		c.frame = nil
	}
	c.fpos = dec.Int()
	c.rec.PC = dec.U32()
	c.rec.Block = dec.U64()
	c.rec.Dep = dec.Bool()
	c.rec.Work = dec.U32()
	c.rec.Instrs = dec.U32()
	c.haveRec = dec.Bool()
	c.dispatch = dec.U64()
	c.dispatched = dec.U64()
	c.retired = dec.U64()
	nr := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nr != len(c.ring) {
		return fmt.Errorf("cpu: snapshot ROB ring has %d entries, want %d", nr, len(c.ring))
	}
	for i := range c.ring {
		e := &c.ring[i]
		e.instrEnd = dec.U64()
		e.complete = dec.Bool()
		e.compTime = dec.U64()
	}
	c.head = dec.Int()
	c.tail = dec.Int()
	c.count = dec.Int()
	c.lastIdx = dec.Int()
	c.haveLast = dec.Bool()
	c.lastDone = dec.Bool()
	c.lastDoneAt = dec.U64()
	c.exhausted = dec.Bool()
	c.stopped = dec.Bool()
	c.target = dec.U64()
	c.targetFired = dec.Bool()
	c.loads = dec.U64()
	c.stallROB = dec.U64()
	c.stallDep = dec.U64()
	c.retireMark = dec.U64()
	c.finish = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if c.frame != nil && c.fpos > c.frame.Len() {
		return fmt.Errorf("cpu: core %d frame position %d exceeds frame length %d", c.id, c.fpos, c.frame.Len())
	}
	return nil
}
