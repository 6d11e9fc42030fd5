// Package event implements the deterministic discrete-event engine that
// drives the timed simulator.
//
// All components (cores, DRAM controller, stream engines) schedule callbacks
// at absolute cycle times on a single engine. Events at equal times fire in
// scheduling order (a monotonically increasing sequence number breaks ties),
// which makes every simulation bit-for-bit reproducible.
//
// # Performance architecture
//
// The engine is built for the simulator's hot path: tens of millions of
// events per run, almost all scheduled a short distance into the future
// (DRAM transfer slots, hit latencies, core quanta — cycles to a few
// hundred cycles). Two structural choices follow:
//
//   - Event records are pooled. ScheduleH/AtH take a Handler interface plus
//     a small typed payload (kind + two uint64s) instead of a closure, so a
//     steady-state simulation performs zero allocations per event, and
//     every pending event can be checkpointed.
//   - The priority queue is a hierarchical calendar queue: a
//     1024-cycle timing wheel of FIFO buckets (with an occupancy bitmap for
//     constant-time next-event scans) absorbs the short delays, and a
//     binary min-heap holds the far-future overflow. Events migrate from
//     the heap into the wheel as time advances, preserving exact
//     (time, sequence) firing order — the engine is bit-for-bit
//     order-identical to a single global heap.
//
// Event records are owned by the engine: they are recycled onto an internal
// free list immediately before the handler runs, so handlers never see or
// retain them. Handlers receive the fire time and the payload by value.
package event

import "math/bits"

// Handler consumes a fired event or a completion callback. Implementations
// dispatch on kind (caller-defined) and receive the payload words a and b
// exactly as scheduled. The same interface doubles as the completion
// callback type for components that deliver results through the engine
// (e.g. the DRAM controller), which lets a completion be scheduled without
// any intermediate closure.
type Handler interface {
	Handle(now uint64, kind uint8, a, b uint64)
}

// wheelBits sets the timing-wheel horizon: delays shorter than wheelSize
// cycles go straight into a bucket; longer ones wait in the overflow heap.
// 1024 covers every latency constant in the simulator (DRAM access = 180,
// core quantum = 256) with headroom.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Event is a pooled scheduler record: one 64-byte host cache line. It is
// internal to the engine's queues; external code interacts through
// Handler and the ScheduleH variants. (Exported so diagnostics and
// benchmarks can size it.)
type Event struct {
	when uint64
	seq  uint64
	h    Handler
	kind uint8
	a, b uint64
	next *Event // bucket FIFO link / free-list link
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// not usable; call NewEngine.
type Engine struct {
	now  uint64
	seq  uint64
	n    int    // total pending events
	base uint64 // wheel start cycle; wheel covers [base, base+wheelSize)

	bucket   [wheelSize]bucket
	occupied [wheelSize / 64]uint64
	occWords uint16 // summary bitmap: bit w set iff occupied[w] != 0
	wheelN   int

	overflow []*Event // min-heap on (when, seq); all whens >= base+wheelSize

	free *Event // recycled records
}

type bucket struct {
	head, tail *Event
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.n }

// get draws a pooled event record.
func (e *Engine) get() *Event {
	ev := e.free
	if ev == nil {
		return &Event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// put recycles a record. Handler references stay — handlers are
// long-lived simulator components (cores, controllers, the simulator
// itself) that outlive the engine anyway, and skipping the store keeps
// two GC write barriers off the per-event path.
func (e *Engine) put(ev *Event) {
	ev.next = e.free
	e.free = ev
}

// ScheduleH arranges for h.Handle(firetime, kind, a, b) to run delay cycles
// from now. No allocation occurs: the event record comes from the engine's
// free list.
func (e *Engine) ScheduleH(delay uint64, h Handler, kind uint8, a, b uint64) {
	e.AtH(e.now+delay, h, kind, a, b)
}

// AtH is ScheduleH at an absolute time. Times in the past are clamped to
// the present: the event fires at Now() but after events already
// scheduled for Now().
func (e *Engine) AtH(when uint64, h Handler, kind uint8, a, b uint64) {
	ev := e.get()
	ev.h = h
	ev.kind = kind
	ev.a = a
	ev.b = b
	e.insert(when, ev)
}

func (e *Engine) insert(when uint64, ev *Event) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	ev.when = when
	ev.seq = e.seq
	e.n++
	if when < e.base+wheelSize {
		e.pushBucket(ev)
		return
	}
	e.heapPush(ev)
}

// pushBucket appends ev to its cycle's FIFO. Buckets hold exactly one
// distinct cycle at a time (the one in [base, base+wheelSize) congruent to
// the index), so FIFO order within a bucket is seq order.
func (e *Engine) pushBucket(ev *Event) {
	i := ev.when & wheelMask
	b := &e.bucket[i]
	if b.tail == nil {
		b.head = ev
		e.occupied[i>>6] |= 1 << (i & 63)
		e.occWords |= 1 << (i >> 6)
		e.wheelN++
	} else {
		b.tail.next = ev
	}
	b.tail = ev
}

// WheelHorizon is the number of cycles the timing wheel covers beyond
// the current base: AtHFront and exact HasPendingAt answers are limited
// to this window.
const WheelHorizon = wheelSize

// HasPendingAt reports whether any not-yet-fired event is scheduled for
// exactly time t. Exact (and O(1)) for t within the wheel horizon; for
// far-future times it conservatively reports true when anything waits in
// the overflow heap. Components use it to decide whether a state change
// at t can be represented by a plain timestamp comparison (no pending
// event can observe the difference) or needs a real event to preserve
// the engine's (time, seq) firing order.
func (e *Engine) HasPendingAt(t uint64) bool {
	if t >= e.base+wheelSize {
		return len(e.overflow) > 0
	}
	b := &e.bucket[t&wheelMask]
	return b.head != nil && b.head.when == t
}

// AtHFront schedules h.Handle(t, kind, a, b) to run at t ahead of every
// event currently pending for that cycle (a normal AtH lands behind
// them). It exists for components that elide an event and must later
// reinsert it at the sequence position the elided event would have had:
// valid only when every event now pending at t was scheduled after the
// elision point. t must be strictly in the future and within the wheel
// horizon; AtHFront reports false (scheduling nothing) otherwise.
func (e *Engine) AtHFront(t uint64, h Handler, kind uint8, a, b uint64) bool {
	if t <= e.now || t >= e.base+wheelSize {
		return false
	}
	ev := e.get()
	ev.h = h
	ev.kind = kind
	ev.a = a
	ev.b = b
	e.seq++
	ev.when = t
	ev.seq = e.seq
	e.n++
	i := t & wheelMask
	bkt := &e.bucket[i]
	if bkt.head == nil {
		bkt.tail = ev
		e.occupied[i>>6] |= 1 << (i & 63)
		e.occWords |= 1 << (i >> 6)
		e.wheelN++
	} else {
		ev.next = bkt.head
	}
	bkt.head = ev
	return true
}

// nextTime returns the fire time of the earliest pending event. Wheel
// events always precede overflow events (the overflow invariant keeps all
// heap whens at or beyond the wheel horizon).
func (e *Engine) nextTime() uint64 {
	if e.wheelN > 0 {
		start := e.base & wheelMask
		i := e.scanFrom(start)
		return e.base + ((i - start) & wheelMask)
	}
	return e.overflow[0].when
}

// scanFrom returns the first occupied bucket index at or (circularly)
// after start, using the two-level occupancy bitmap: the summary word
// locates the first non-empty 64-bucket group in two TrailingZeros
// instead of a word-by-word sweep. The caller guarantees at least one
// occupied bucket.
func (e *Engine) scanFrom(start uint64) uint64 {
	word := start >> 6
	if w := e.occupied[word] &^ ((1 << (start & 63)) - 1); w != 0 {
		return word<<6 + uint64(bits.TrailingZeros64(w))
	}
	// First summary bit circularly after word; a full wrap lands on word
	// itself again, this time unmasked.
	s := e.occWords &^ (1<<(word+1) - 1)
	if s == 0 {
		s = e.occWords
	}
	if s == 0 {
		panic("event: scanFrom on empty wheel")
	}
	word = uint64(bits.TrailingZeros16(s))
	return word<<6 + uint64(bits.TrailingZeros64(e.occupied[word]))
}

// advance moves the clock (and the wheel base) to t and migrates overflow
// events that have come within the wheel horizon. Migration pops the heap
// in (when, seq) order, and any event later scheduled for the same cycle
// gets a larger seq and lands behind it in the bucket FIFO, so global
// firing order is exactly (when, seq).
func (e *Engine) advance(t uint64) {
	e.base = t
	e.now = t
	horizon := t + wheelSize
	for len(e.overflow) > 0 && e.overflow[0].when < horizon {
		e.pushBucket(e.heapPop())
	}
}

// Step fires the earliest pending event and advances time to it.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if e.n == 0 {
		return false
	}
	e.fireNext()
	return true
}

func (e *Engine) fireNext() {
	// Events cluster on the current cycle (completions scheduled for
	// "now", same-cycle cascades): if the present bucket is non-empty it
	// necessarily holds the earliest (time, seq) event, so the bitmap
	// scan and the advance test are skipped entirely.
	if b := &e.bucket[e.base&wheelMask]; b.head != nil {
		e.fireFrom(b, e.base&wheelMask)
		return
	}
	t := e.nextTime()
	if t != e.base {
		e.advance(t)
	}
	i := t & wheelMask
	e.fireFrom(&e.bucket[i], i)
}

// fireFrom pops and fires the head event of bucket b (index i), which
// the caller guarantees holds the earliest pending (time, seq).
func (e *Engine) fireFrom(b *bucket, i uint64) {
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		if e.occupied[i>>6] &^= 1 << (i & 63); e.occupied[i>>6] == 0 {
			e.occWords &^= 1 << (i >> 6)
		}
		e.wheelN--
	}
	e.n--
	// Copy out and recycle before firing: the handler may schedule new
	// events, which can immediately reuse this record.
	h, kind, a, bb := ev.h, ev.kind, ev.a, ev.b
	e.put(ev)
	h.Handle(e.now, kind, a, bb)
}

// RunUntil fires events in order until the next event would be later than t
// (or no events remain), then advances time to t.
func (e *Engine) RunUntil(t uint64) {
	for e.n > 0 && e.nextTime() <= t {
		e.fireNext()
	}
	if e.now < t {
		e.advance(t)
	}
}

// Drain fires events until none remain or until the predicate stop returns
// true (checked between events). A nil stop drains everything.
func (e *Engine) Drain(stop func() bool) {
	for e.n > 0 {
		if stop != nil && stop() {
			return
		}
		e.fireNext()
	}
}

// DrainEvery is Drain with the predicate polled once per stride events
// instead of between every pair: the indirect call and its spilled
// registers stay off the firing loop. Cancellation latency rises to at
// most stride events — the simulator polls its context on the same
// order of granularity anyway.
func (e *Engine) DrainEvery(stride int, stop func() bool) {
	if stride < 1 || stop == nil {
		e.Drain(stop)
		return
	}
	for e.n > 0 {
		if stop() {
			return
		}
		for i := 0; i < stride && e.n > 0; i++ {
			e.fireNext()
		}
	}
}

// --- overflow min-heap on (when, seq) ---

func overflowLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *Event) {
	e.overflow = append(e.overflow, ev)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(e.overflow[i], e.overflow[parent]) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

func (e *Engine) heapPop() *Event {
	top := e.overflow[0]
	n := len(e.overflow) - 1
	e.overflow[0] = e.overflow[n]
	e.overflow[n] = nil
	e.overflow = e.overflow[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && overflowLess(e.overflow[l], e.overflow[smallest]) {
			smallest = l
		}
		if r < n && overflowLess(e.overflow[r], e.overflow[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		e.overflow[i], e.overflow[smallest] = e.overflow[smallest], e.overflow[i]
		i = smallest
	}
}
