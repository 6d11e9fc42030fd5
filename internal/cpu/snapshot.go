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
//
// The snapshot is decoded and checked before the core changes: a ROB
// index outside the ring, an occupancy that disagrees with head and
// tail, or a trace position outside its frame is rejected with
// ckpt.ErrCorrupt, since stepping such a core would index past its
// ring or frame.
func (c *Core) Restore(dec *ckpt.Decoder) error {
	dec.Section("cpu.Core")
	id := dec.Int()
	framesRead := dec.U64()
	hadFrame := dec.Bool()
	s := *c // the restored core, assigned once every check passes
	s.fpos = dec.Int()
	s.rec.PC = dec.U32()
	s.rec.Block = dec.U64()
	s.rec.Dep = dec.Bool()
	s.rec.Work = dec.U32()
	s.rec.Instrs = dec.U32()
	s.haveRec = dec.Bool()
	s.dispatch = dec.U64()
	s.dispatched = dec.U64()
	s.retired = dec.U64()
	nr := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if id != c.id {
		return fmt.Errorf("%w: cpu: snapshot is for core %d, restoring core %d", ckpt.ErrCorrupt, id, c.id)
	}
	n := len(c.ring)
	if nr != n {
		return fmt.Errorf("%w: cpu: snapshot ROB ring has %d entries, want %d", ckpt.ErrCorrupt, nr, n)
	}
	s.ring = make([]robEntry, n)
	for i := range s.ring {
		e := &s.ring[i]
		e.instrEnd = dec.U64()
		e.complete = dec.Bool()
		e.compTime = dec.U64()
	}
	s.head = dec.Int()
	s.tail = dec.Int()
	s.count = dec.Int()
	s.lastIdx = dec.Int()
	s.haveLast = dec.Bool()
	s.lastDone = dec.Bool()
	s.lastDoneAt = dec.U64()
	s.exhausted = dec.Bool()
	s.stopped = dec.Bool()
	s.target = dec.U64()
	s.targetFired = dec.Bool()
	s.loads = dec.U64()
	s.stallROB = dec.U64()
	s.stallDep = dec.U64()
	s.retireMark = dec.U64()
	s.finish = dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	inRing := func(i int) bool { return i >= 0 && i < n }
	if !inRing(s.head) || !inRing(s.tail) || !inRing(s.lastIdx) {
		return fmt.Errorf("%w: cpu: core %d ROB head %d, tail %d or last load %d outside the %d-entry ring",
			ckpt.ErrCorrupt, c.id, s.head, s.tail, s.lastIdx, n)
	}
	if !inRing(s.count) || s.count != ((s.tail-s.head)%n+n)%n {
		return fmt.Errorf("%w: cpu: core %d ROB holds %d entries between head %d and tail %d of %d",
			ckpt.ErrCorrupt, c.id, s.count, s.head, s.tail, n)
	}
	if s.fpos < 0 {
		return fmt.Errorf("%w: cpu: core %d frame position %d is negative", ckpt.ErrCorrupt, c.id, s.fpos)
	}
	for i := uint64(0); i < framesRead; i++ {
		f := c.src.NextFrame()
		if f == nil {
			return fmt.Errorf("%w: cpu: core %d source ran dry after %d frames, snapshot needs %d", ckpt.ErrCorrupt, c.id, i, framesRead)
		}
		s.frame = f
	}
	if !hadFrame {
		s.frame = nil
	}
	if s.frame != nil && s.fpos > s.frame.Len() {
		return fmt.Errorf("%w: cpu: core %d frame position %d exceeds frame length %d", ckpt.ErrCorrupt, c.id, s.fpos, s.frame.Len())
	}
	s.framesRead = framesRead
	*c = s
	return nil
}
