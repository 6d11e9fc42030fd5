package event

import (
	"fmt"

	"stms/internal/ckpt"
)

// Snapshot serializes the engine's complete scheduling state: clock,
// sequence counter, every pending wheel event in exact per-bucket FIFO
// order, and the overflow heap verbatim. idOf maps a pending event's
// Handler to a stable small integer (the simulator registers its
// handlers in a fixed construction order); an unregistered handler is
// an error.
//
// Snapshot must be called between events (the Drain stop callback),
// where now == base holds.
func (e *Engine) Snapshot(enc *ckpt.Encoder, idOf func(Handler) (uint32, bool)) error {
	if e.now != e.base {
		return fmt.Errorf("event: snapshot mid-advance (now=%d base=%d)", e.now, e.base)
	}
	enc.Section("event.Engine")
	enc.U64(e.now)
	enc.U64(e.seq)

	put := func(ev *Event) error {
		id, ok := idOf(ev.h)
		if !ok {
			return fmt.Errorf("event: pending event at t=%d has unregistered handler %T", ev.when, ev.h)
		}
		enc.U64(ev.when)
		enc.U64(ev.seq)
		enc.U32(id)
		enc.U8(ev.kind)
		enc.U64(ev.a)
		enc.U64(ev.b)
		return nil
	}

	enc.U64(uint64(e.n - len(e.overflow))) // wheel event count
	for i := range e.bucket {
		for ev := e.bucket[i].head; ev != nil; ev = ev.next {
			if err := put(ev); err != nil {
				return err
			}
		}
	}
	enc.U64(uint64(len(e.overflow)))
	for _, ev := range e.overflow {
		if err := put(ev); err != nil {
			return err
		}
	}
	return nil
}

// Restore rebuilds the engine from a Snapshot. The engine must be
// freshly constructed and empty; handlerOf inverts the idOf mapping
// used at snapshot time. Bucket FIFO order and the overflow heap's
// array layout are reproduced exactly, so the restored engine fires
// the identical event sequence.
func (e *Engine) Restore(dec *ckpt.Decoder, handlerOf func(uint32) (Handler, bool)) error {
	if e.n != 0 {
		return fmt.Errorf("event: restore into non-empty engine (%d pending)", e.n)
	}
	dec.Section("event.Engine")
	e.now = dec.U64()
	e.base = e.now
	e.seq = dec.U64()

	take := func() (*Event, error) {
		when := dec.U64()
		seq := dec.U64()
		id := dec.U32()
		kind := dec.U8()
		a := dec.U64()
		b := dec.U64()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		h, ok := handlerOf(id)
		if !ok {
			return nil, fmt.Errorf("event: checkpoint references unknown handler id %d", id)
		}
		ev := e.get()
		ev.when, ev.seq, ev.h, ev.kind, ev.a, ev.b = when, seq, h, kind, a, b
		return ev, nil
	}

	wheelEvents := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := uint64(0); i < wheelEvents; i++ {
		ev, err := take()
		if err != nil {
			return err
		}
		if ev.when < e.base || ev.when >= e.base+wheelSize {
			return fmt.Errorf("event: wheel event at t=%d outside [%d, %d)", ev.when, e.base, e.base+wheelSize)
		}
		e.pushBucket(ev)
		e.n++
	}
	overflowEvents := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := uint64(0); i < overflowEvents; i++ {
		ev, err := take()
		if err != nil {
			return err
		}
		if ev.when < e.base+wheelSize {
			return fmt.Errorf("event: overflow event at t=%d inside wheel horizon", ev.when)
		}
		// The heap array is restored verbatim in index order, preserving
		// its exact shape (heap property is order-insensitive, but shape
		// identity keeps later pops bit-identical).
		e.overflow = append(e.overflow, ev)
		e.n++
	}
	return dec.Err()
}
