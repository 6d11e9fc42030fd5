package prefetch

import (
	"fmt"

	"stms/internal/ckpt"
	"stms/internal/event"
)

// ReadTagger is an optional Metadata extension used by checkpointing.
// The engine announces the issuing core and stream generation (curSeq)
// of each ReadNext immediately before issuing it; a backend that parks
// reads as pending records stores the tag alongside, so a checkpoint
// can later identify the in-flight read and a restore can re-mint its
// completion via ReadDoneFor. The issuing core must be tagged
// explicitly: the cursor's own core names the history being read,
// which differs from the issuer whenever a core follows another
// core's stream. Synchronous backends (idealized TMS) never park
// reads and need not implement this.
type ReadTagger interface {
	SetNextRead(core int, seq uint64)
}

// LookupDoneFor returns core's premade lookup continuation — the exact
// func value NewEngine installed — so a restored backend can re-wire a
// pending lookup record to it.
func (e *Engine) LookupDoneFor(core int) func(*Cursor) {
	return e.core[core].lookupDone
}

// ReadDoneFor mints a pooled read completion for (core, seq), the
// restore-side counterpart of the op the engine issued before the
// checkpoint. A stale seq is harmless: fire drops completions whose
// stream generation no longer matches.
func (e *Engine) ReadDoneFor(core int, seq uint64) func(addrs, positions []uint64, marked bool, markAddr uint64) {
	return e.getReadOp(core, seq).done
}

// eachLive calls f on every live position of a history with the given
// head and capacity, in the slot order of a flat slice of cap slots
// (slot = position mod cap): the order snapshots list them in.
func eachLive(head, capEntries uint64, f func(pos uint64)) {
	base := head - min(head, capEntries)
	first := base + (capEntries-base%capEntries)%capEntries // the position slot 0 holds
	for p := first; p < head; p++ {
		f(p)
	}
	for p := base; p < first; p++ {
		f(p)
	}
}

// Snapshot serializes one core's history buffer. The live entries go out
// as one flat slot-ordered U64s list, each mark merged into its entry's
// top bit (markBit): the same bytes a single-slice history wrote, so
// checkpoints depend neither on the page size nor on the log's slack
// slot or its sharing.
func (h *History) Snapshot(enc *ckpt.Encoder) {
	enc.Section("prefetch.History")
	enc.U64(h.cap)
	enc.U64(h.head)
	enc.U64(min(h.head, h.cap))
	eachLive(h.head, h.cap, func(p uint64) {
		slot := h.log.slotOf(p)
		e := *h.log.at(slot)
		if h.marked(slot) {
			e |= markBit
		}
		enc.U64(e)
	})
}

// Restore rebuilds the history and its log from a Snapshot taken on an
// identically sized history. A snapshot must hold exactly the
// min(head, cap) live entries its head implies; any other count is
// rejected with ckpt.ErrCorrupt rather than restored into a history that
// would read past its storage. A history whose log other views share
// cannot be restored: rewriting the log would rewrite theirs.
func (h *History) Restore(dec *ckpt.Decoder) error {
	l := h.log
	if l.views != 1 {
		return fmt.Errorf("prefetch: cannot restore a history whose log %d views share", l.views)
	}
	dec.Section("prefetch.History")
	c := dec.U64()
	head := dec.U64()
	entries := dec.U64s()
	if err := dec.Err(); err != nil {
		return err
	}
	if c != h.cap {
		return fmt.Errorf("prefetch: history snapshot capacity %d does not match %d", c, h.cap)
	}
	if live := min(head, c); uint64(len(entries)) != live {
		return fmt.Errorf("%w: prefetch: history snapshot has %d entries, head %d and capacity %d need %d",
			ckpt.ErrCorrupt, len(entries), head, c, live)
	}
	// Slots fill in order before the first wrap, so the log holds a page
	// for every slot below min(head, slots).
	l.head, l.slot, l.pages = head, head%l.slots, nil
	for off := uint64(0); off < min(head, l.slots); off += historyPage {
		l.pages = append(l.pages, make([]uint64, min(historyPage, l.slots-off)))
	}
	h.head, h.marks = head, nil
	eachLive(head, c, func(p uint64) {
		e := entries[0]
		entries = entries[1:]
		slot := p % l.slots
		*l.at(slot) = e &^ markBit
		if e&markBit != 0 {
			h.setMark(slot)
		}
	})
	return nil
}

// Snapshot serializes the buffer's live entries in insertion order,
// including each entry's partial-hit waiter chain. Waiter handlers are
// mapped to stable ids through idOf (same registry the event engine
// uses).
func (b *Buffer) Snapshot(enc *ckpt.Encoder, idOf func(event.Handler) (uint32, bool)) error {
	enc.Section("prefetch.Buffer")
	enc.Int(b.cap)
	enc.Int(b.m.Len())
	for i := b.head; i != pbNil; i = b.nodes[i].next {
		n := &b.nodes[i]
		enc.U64(n.blk)
		enc.Bool(n.readyOK)
		enc.U64(n.readyAt)
		enc.Bool(n.claimed)
		enc.U64(n.stream)
		enc.U64(n.pos)
		nw := 0
		for w := n.wHead; w != pbNil; w = b.waiters[w].next {
			nw++
		}
		enc.Int(nw)
		for w := n.wHead; w != pbNil; w = b.waiters[w].next {
			rec := &b.waiters[w]
			id, ok := idOf(rec.h)
			if !ok {
				return fmt.Errorf("prefetch: buffer waiter has unregistered handler %T", rec.h)
			}
			enc.U32(id)
			enc.U8(rec.kind)
			enc.U64(rec.a)
			enc.U64(rec.b)
		}
	}
	enc.U64(b.Issued)
	enc.U64(b.FullHits)
	enc.U64(b.PartialHits)
	enc.U64(b.EvictedUnused)
	enc.U64(b.Dropped)
	return nil
}

// Restore rebuilds the buffer from a Snapshot. The buffer must be
// freshly constructed with the same capacity; insertion order, waiter
// chains and the evictable accounting are reproduced exactly. A
// snapshot holding more entries than the capacity, one block twice, or
// the reserved all-ones block is rejected with ckpt.ErrCorrupt.
func (b *Buffer) Restore(dec *ckpt.Decoder, handlerOf func(uint32) (event.Handler, bool)) error {
	dec.Section("prefetch.Buffer")
	capacity := dec.Int()
	count := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if capacity != b.cap {
		return fmt.Errorf("prefetch: buffer snapshot capacity %d does not match %d", capacity, b.cap)
	}
	if b.m.Len() != 0 {
		return fmt.Errorf("prefetch: restore into non-empty buffer")
	}
	if count < 0 || count > b.cap {
		return fmt.Errorf("%w: prefetch: buffer snapshot has %d entries, capacity %d", ckpt.ErrCorrupt, count, b.cap)
	}
	for k := 0; k < count; k++ {
		var n pbNode
		n.blk = dec.U64()
		n.readyOK = dec.Bool()
		n.readyAt = dec.U64()
		n.claimed = dec.Bool()
		n.stream = dec.U64()
		n.pos = dec.U64()
		n.wHead, n.wTail, n.prev, n.next = pbNil, pbNil, pbNil, pbNil
		nw := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if n.blk == ^uint64(0) || b.m.Contains(n.blk) {
			return fmt.Errorf("%w: prefetch: buffer snapshot repeats block %#x or holds the reserved block", ckpt.ErrCorrupt, n.blk)
		}
		b.nodes = append(b.nodes, n)
		i := int32(len(b.nodes) - 1)
		b.m.Put(n.blk, i)
		b.pushBack(i)
		if n.readyOK && !n.claimed {
			b.readyDelta(n.stream, 1)
		}
		for j := 0; j < nw; j++ {
			id := dec.U32()
			kind := dec.U8()
			a := dec.U64()
			bb := dec.U64()
			if err := dec.Err(); err != nil {
				return err
			}
			h, ok := handlerOf(id)
			if !ok {
				return fmt.Errorf("prefetch: buffer waiter references unknown handler id %d", id)
			}
			b.addWaiter(i, h, kind, a, bb)
		}
	}
	b.Issued = dec.U64()
	b.FullHits = dec.U64()
	b.PartialHits = dec.U64()
	b.EvictedUnused = dec.U64()
	b.Dropped = dec.U64()
	return dec.Err()
}

// Snapshot serializes the stream engine: global sequence, statistics,
// and every core's queue, cursor, stream status and prefetch buffer.
// In-flight backend operations (lookups, history reads) live in the
// backend's own pending records and are restored there; the engine only
// carries the busy flags.
func (e *Engine) Snapshot(enc *ckpt.Encoder, idOf func(event.Handler) (uint32, bool)) error {
	enc.Section("prefetch.Engine")
	enc.Int(len(e.core))
	enc.U64(e.seq)
	enc.U64(e.st.Lookups)
	enc.U64(e.st.LookupHits)
	enc.U64(e.st.Adopted)
	enc.U64(e.st.Abandoned)
	enc.U64(e.st.Resumed)
	enc.U64(e.st.DepthStops)
	enc.U64(e.st.Exhausted)
	enc.U64(e.st.IssuedPrefetches)
	enc.U64(e.st.FilteredOnChip)
	enc.U64(e.st.FullHits)
	enc.U64(e.st.PartialHits)
	enc.U64(e.st.EvictedUnused)
	vals, weights, sorted := e.st.StreamLens.Snapshot()
	enc.F64s(vals)
	enc.F64s(weights)
	enc.Bool(sorted)
	for i := range e.core {
		st := &e.core[i]
		enc.Int(len(st.q))
		for _, q := range st.q {
			enc.U64(q.addr)
			enc.U64(q.pos)
		}
		enc.Int(st.qHead)
		enc.Int(st.qLen)
		enc.Int(st.cur.Core)
		enc.U64(st.cur.Pos)
		enc.U64(st.cur.ID)
		enc.U64(st.curSeq)
		enc.Bool(st.active)
		enc.Bool(st.paused)
		enc.U64(st.markAddr)
		enc.Bool(st.lookBusy)
		enc.Bool(st.readBusy)
		enc.Int(st.missStreak)
		enc.U64(st.hits)
		enc.U64(st.lastHitPos)
		enc.Int(st.depth)
		enc.Int(st.credit)
		if err := st.buf.Snapshot(enc, idOf); err != nil {
			return err
		}
	}
	return nil
}

// Restore rebuilds the engine from a Snapshot. The engine must be
// freshly constructed with the same configuration. A queue head or
// length outside the ring, a cursor on a core that does not exist, or
// a stream-length sample without its weight is rejected with
// ckpt.ErrCorrupt.
func (e *Engine) Restore(dec *ckpt.Decoder, handlerOf func(uint32) (event.Handler, bool)) error {
	dec.Section("prefetch.Engine")
	cores := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if cores != len(e.core) {
		return fmt.Errorf("prefetch: engine snapshot has %d cores, want %d", cores, len(e.core))
	}
	e.seq = dec.U64()
	e.st.Lookups = dec.U64()
	e.st.LookupHits = dec.U64()
	e.st.Adopted = dec.U64()
	e.st.Abandoned = dec.U64()
	e.st.Resumed = dec.U64()
	e.st.DepthStops = dec.U64()
	e.st.Exhausted = dec.U64()
	e.st.IssuedPrefetches = dec.U64()
	e.st.FilteredOnChip = dec.U64()
	e.st.FullHits = dec.U64()
	e.st.PartialHits = dec.U64()
	e.st.EvictedUnused = dec.U64()
	vals := dec.F64s()
	weights := dec.F64s()
	sorted := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(vals) != len(weights) {
		return fmt.Errorf("%w: prefetch: engine snapshot has %d stream lengths, %d weights", ckpt.ErrCorrupt, len(vals), len(weights))
	}
	e.st.StreamLens.SetSnapshot(vals, weights, sorted)
	for i := range e.core {
		st := &e.core[i]
		qn := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if qn != len(st.q) {
			return fmt.Errorf("prefetch: engine snapshot queue cap %d does not match %d", qn, len(st.q))
		}
		for j := range st.q {
			st.q[j].addr = dec.U64()
			st.q[j].pos = dec.U64()
		}
		st.qHead = dec.Int()
		st.qLen = dec.Int()
		st.cur.Core = dec.Int()
		st.cur.Pos = dec.U64()
		st.cur.ID = dec.U64()
		st.curSeq = dec.U64()
		st.active = dec.Bool()
		st.paused = dec.Bool()
		st.markAddr = dec.U64()
		st.lookBusy = dec.Bool()
		st.readBusy = dec.Bool()
		st.missStreak = dec.Int()
		st.hits = dec.U64()
		st.lastHitPos = dec.U64()
		st.depth = dec.Int()
		st.credit = dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		switch {
		case st.qHead < 0 || st.qHead >= qn:
			return fmt.Errorf("%w: prefetch: engine snapshot queue head %d outside [0, %d)", ckpt.ErrCorrupt, st.qHead, qn)
		case st.qLen < 0 || st.qLen > qn:
			return fmt.Errorf("%w: prefetch: engine snapshot queue length %d outside [0, %d]", ckpt.ErrCorrupt, st.qLen, qn)
		case st.cur.Core < 0 || st.cur.Core >= len(e.core):
			return fmt.Errorf("%w: prefetch: engine snapshot cursor on core %d of %d", ckpt.ErrCorrupt, st.cur.Core, len(e.core))
		}
		if err := st.buf.Restore(dec, handlerOf); err != nil {
			return err
		}
	}
	return dec.Err()
}
