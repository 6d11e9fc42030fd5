// Package dram models the off-chip memory interface the paper's analysis
// revolves around: a fixed-latency DRAM with a finite-bandwidth channel and
// two priority classes.
//
// Geometry follows Table 1: 45 ns access latency (180 cycles at 4 GHz) and
// 28.4 GB/s peak bandwidth with 64-byte transfers, i.e. one transfer every
// ~9 cycles. Demand traffic is served at high priority; all predictor
// meta-data and prefetch traffic is low priority ("We find that assigning a
// low priority to predictor memory traffic is essential", §4.3).
//
// Every access carries a Class so the experiment harness can reconstruct
// Figure 7's overhead breakdown (record streams / update index / lookup
// streams / incorrect prefetches) directly from controller counters.
package dram

import (
	"stms/internal/event"
	"stms/internal/mem"
)

// Class labels the purpose of a memory access for traffic accounting.
type Class uint8

// Traffic classes. Demand and Writeback are the base system's "useful"
// traffic; everything else is prefetcher overhead of one kind or another.
const (
	Demand        Class = iota // demand cache-block fetch (read)
	Writeback                  // dirty eviction (write)
	StrideData                 // stride-prefetched block (read)
	StreamData                 // temporally-streamed block (read)
	IndexLookup                // index-table bucket read on lookup
	IndexUpdateRd              // index-table bucket read for update
	IndexUpdateWr              // index-table bucket writeback
	HistoryAppend              // packed history-buffer write (12 entries/line)
	HistoryRead                // history-buffer line read while streaming
	EndMarkWrite               // stream-end annotation write
	numClasses
)

var classNames = [numClasses]string{
	"demand", "writeback", "stride", "stream-data", "index-lookup",
	"index-update-rd", "index-update-wr", "history-append", "history-read",
	"end-mark",
}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// NumClasses is the number of traffic classes.
const NumClasses = int(numClasses)

// Config sets the controller's timing parameters.
type Config struct {
	// LatencyCycles is the unloaded access latency (request start to data
	// available). Table 1: 45 ns at 4 GHz = 180 cycles.
	LatencyCycles uint64
	// XferCycles is the channel occupancy of one 64-byte transfer.
	// 28.4 GB/s at 4 GHz = 64 B every ~9 cycles.
	XferCycles uint64
}

// DefaultConfig returns Table 1's memory system.
func DefaultConfig() Config {
	return Config{LatencyCycles: 180, XferCycles: 9}
}

// Traffic accumulates per-class access counts; bytes are counts × 64.
type Traffic struct {
	Accesses [NumClasses]uint64
}

// Bytes returns the byte volume of class c.
func (t Traffic) Bytes(c Class) uint64 {
	return t.Accesses[c] * mem.BlockBytes
}

// TotalAccesses sums all classes.
func (t Traffic) TotalAccesses() uint64 {
	var s uint64
	for _, a := range t.Accesses {
		s += a
	}
	return s
}

// Sub returns the element-wise difference t - old (for measurement
// windows).
func (t Traffic) Sub(old Traffic) Traffic {
	var d Traffic
	for i := range t.Accesses {
		d.Accesses[i] = t.Accesses[i] - old.Accesses[i]
	}
	return d
}

// request is one queued transfer. Completion is delivered either through a
// typed handler (h/kind/a/b — the allocation-free hot path) or through a
// caller closure (done — the compatibility path); requests live in the
// controller's ring buffers, never individually on the heap.
type request struct {
	class    Class
	isWrite  bool
	kind     uint8
	h        event.Handler
	done     func(now uint64)
	a, b     uint64
	enqueued uint64
}

// reqQueue is a growable FIFO ring. The old slice-based queues re-sliced
// on pop and re-allocated on push, which made the controller the single
// biggest allocator in timed runs.
type reqQueue struct {
	buf  []request
	head int
	n    int
}

func (q *reqQueue) len() int { return q.n }

func (q *reqQueue) push(r request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqQueue) pop() request {
	slot := &q.buf[q.head]
	r := *slot
	// Drop only the closure reference: clearing the whole slot would
	// write the full struct back (plus a second pointer barrier for the
	// handler, which is a long-lived component and safe to retain).
	if slot.done != nil {
		slot.done = nil
	}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

func (q *reqQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]request, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Controller event kinds.
const (
	kXferDone uint8 = iota // channel transfer slot freed
	kDeliver               // closure-path data delivery (a = slot index)
)

// Controller is the event-driven memory controller. All requests transfer
// exactly one 64-byte block.
//
// Channel occupancy is time-based: a transfer marks the channel busy
// until busyUntil, and a drain event exists only while requests are
// actually queued behind it. The common case — a request arriving to an
// idle, empty channel — costs no internal event at all, only the
// caller's data-delivery event. Firing order is identical to the old
// always-evented design: the eager transfer-done event ran before any
// same-cycle arrivals (it was scheduled earliest) and did nothing but
// clear the busy flag, which the busyUntil comparison reproduces
// exactly, and a lazy drain starts the same queued request on the same
// cycle it always started.
type Controller struct {
	cfg Config
	eng *event.Engine

	hi, lo    reqQueue // FIFO queues per priority
	busyUntil uint64   // channel occupied for cycles < busyUntil
	drain     bool     // a kXferDone drain event is pending
	traffic   Traffic

	// slots parks closure-path done callbacks between service start and
	// data delivery; free is its free list.
	slots []func(now uint64)
	free  []int32

	// busyCycles integrates channel occupancy for utilization reporting.
	busyCycles uint64
	// queueDelay accumulates cycles spent waiting before service.
	queueDelay   uint64
	servedCount  uint64
	createdCycle uint64
}

var _ event.Handler = (*Controller)(nil)

// New builds a controller on the given engine.
func New(eng *event.Engine, cfg Config) *Controller {
	return &Controller{cfg: cfg, eng: eng, createdCycle: eng.Now()}
}

// Traffic returns a copy of the per-class counters.
func (c *Controller) Traffic() Traffic { return c.traffic }

// BusyUntil returns the cycle the in-flight transfer completes (at or
// below the current cycle when the channel is idle). After a full event
// drain this is the channel's true end-of-work time: the final
// transfer's completion no longer fires an event of its own, so the
// engine clock can stop one transfer slot short of it.
func (c *Controller) BusyUntil() uint64 { return c.busyUntil }

// Utilization returns the fraction of cycles the channel was busy since
// construction (or the last ResetStats). The elapsed window extends to
// the end of the last transfer when that outlives the final event.
func (c *Controller) Utilization() float64 {
	now := c.eng.Now()
	if c.busyUntil > now {
		now = c.busyUntil
	}
	elapsed := now - c.createdCycle
	if elapsed == 0 {
		return 0
	}
	return float64(c.busyCycles) / float64(elapsed)
}

// AvgQueueDelay returns the mean cycles requests waited for the channel.
func (c *Controller) AvgQueueDelay() float64 {
	if c.servedCount == 0 {
		return 0
	}
	return float64(c.queueDelay) / float64(c.servedCount)
}

// ResetStats zeroes traffic and utilization counters (end of warm-up).
// In-flight requests continue unaffected.
func (c *Controller) ResetStats() {
	c.traffic = Traffic{}
	c.busyCycles = 0
	c.queueDelay = 0
	c.servedCount = 0
	c.createdCycle = c.eng.Now()
}

// Read issues a block read of the given class. done fires when the data is
// available (service start + access latency). hiPri selects the priority
// queue; only demand traffic should be high priority.
func (c *Controller) Read(class Class, hiPri bool, done func(now uint64)) {
	c.enqueue(request{class: class, done: done, enqueued: c.eng.Now()}, hiPri)
}

// busyNow reports whether the channel is mid-transfer at the current
// cycle. At exactly busyUntil the channel is free once the drain event
// (when one exists) has fired: under the old eager-event design, events
// already pending when the transfer started fired before its
// transfer-done and saw a busy channel, while everything scheduled later
// fired after it and saw a free one. A pending drain carries exactly the
// transfer-done's place in that order.
func (c *Controller) busyNow() bool {
	now := c.eng.Now()
	if now < c.busyUntil {
		return true
	}
	return c.drain && now == c.busyUntil
}

// idle reports whether a new request would start service immediately:
// channel free, nothing queued ahead. Serving it directly is
// behaviour-identical to the ring round-trip (the pop would select it
// anyway) and skips the request-struct shuffle on the common path — the
// modelled channel runs well under saturation, so most requests arrive
// to an idle channel.
func (c *Controller) idle() bool {
	return c.hi.n == 0 && c.lo.n == 0 && !c.busyNow()
}

// startXfer accounts and occupies the channel for one zero-wait transfer.
//
// The busy interval is usually pure bookkeeping (busyUntil). The one
// case a timestamp cannot reproduce: an event that was already pending
// at exactly busyUntil fires before a freshly scheduled transfer-done
// would have (lower sequence number), so under the old eager-event
// design it observed a still-busy channel. If such an event exists, a
// real drain event restores the exact (time, seq) semantics.
func (c *Controller) startXfer() {
	c.busyUntil = c.eng.Now() + c.cfg.XferCycles
	c.servedCount++
	c.busyCycles += c.cfg.XferCycles
	// Oversized transfer slots always take the eager event: a later
	// front-inserted drain needs busyUntil inside the wheel horizon.
	if c.eng.HasPendingAt(c.busyUntil) || c.cfg.XferCycles >= event.WheelHorizon {
		c.scheduleDrain()
	}
}

// ReadH is Read with a typed completion: when the data is available,
// h.Handle(now, kind, a, b) runs. Unlike Read, no per-request closure
// exists anywhere — the request rides the controller's ring and the
// delivery rides a pooled engine event.
func (c *Controller) ReadH(class Class, hiPri bool, h event.Handler, kind uint8, a, b uint64) {
	c.traffic.Accesses[class]++
	if c.idle() {
		c.startXfer()
		c.eng.ScheduleH(c.cfg.LatencyCycles, h, kind, a, b)
		return
	}
	c.queue(request{class: class, h: h, kind: kind, a: a, b: b, enqueued: c.eng.Now()}, hiPri)
}

// Write issues a block write of the given class. Writes are fire-and-forget
// for the issuer (the data leaves an on-chip buffer) but still consume
// channel bandwidth.
func (c *Controller) Write(class Class, hiPri bool) {
	c.traffic.Accesses[class]++
	if c.idle() {
		c.startXfer()
		return
	}
	c.queue(request{class: class, isWrite: true, enqueued: c.eng.Now()}, hiPri)
}

func (c *Controller) enqueue(r request, hiPri bool) {
	c.traffic.Accesses[r.class]++
	if c.idle() {
		c.serve(r)
		return
	}
	c.queue(r, hiPri)
}

func (c *Controller) queue(r request, hiPri bool) {
	if hiPri {
		c.hi.push(r)
	} else {
		c.lo.push(r)
	}
	c.tryStart()
}

func (c *Controller) tryStart() {
	if c.busyNow() {
		// Mid-transfer: make sure a drain event will pick the queue up
		// the moment the channel frees.
		c.scheduleLateDrain()
		return
	}
	var r request
	switch {
	case c.hi.len() > 0:
		r = c.hi.pop()
	case c.lo.len() > 0:
		r = c.lo.pop()
	default:
		return
	}
	c.serve(r)
}

// scheduleDrain arranges (at most once, at transfer start) for the queue
// to be re-examined when the current transfer completes.
func (c *Controller) scheduleDrain() {
	if c.drain {
		return
	}
	c.drain = true
	c.eng.AtH(c.busyUntil, c, kXferDone, 0, 0)
}

// scheduleLateDrain is scheduleDrain for drains decided after the
// transfer already started (a request queued mid-transfer). The drain
// must fire exactly where the old eager transfer-done would have: ahead
// of every event now pending at busyUntil — startXfer proved that cycle
// had no events pending when the transfer began, so everything there now
// was scheduled later and belongs behind the drain. Front insertion
// restores that order; if it is not possible (busyUntil at or past the
// horizon — only with oversized transfer slots, which startXfer handles
// eagerly), the plain tail insert is the fallback.
func (c *Controller) scheduleLateDrain() {
	if c.drain {
		return
	}
	c.drain = true
	if !c.eng.AtHFront(c.busyUntil, c, kXferDone, 0, 0) {
		c.eng.AtH(c.busyUntil, c, kXferDone, 0, 0)
	}
}

// serve starts one transfer on the (idle) channel.
func (c *Controller) serve(r request) {
	now := c.eng.Now()
	c.queueDelay += now - r.enqueued
	c.startXfer()
	// Channel is occupied for one transfer slot; data is available after
	// the full access latency. If requests remain queued behind this one,
	// a drain event re-examines the queue when the slot frees.
	if c.hi.n > 0 || c.lo.n > 0 {
		c.scheduleDrain()
	}
	if r.isWrite {
		return
	}
	if r.h != nil {
		c.eng.ScheduleH(c.cfg.LatencyCycles, r.h, r.kind, r.a, r.b)
		return
	}
	if r.done != nil {
		c.eng.ScheduleH(c.cfg.LatencyCycles, c, kDeliver, uint64(c.park(r.done)), 0)
	}
}

// park stores a closure-path callback until its delivery event fires.
func (c *Controller) park(done func(now uint64)) int32 {
	if n := len(c.free); n > 0 {
		i := c.free[n-1]
		c.free = c.free[:n-1]
		c.slots[i] = done
		return i
	}
	c.slots = append(c.slots, done)
	return int32(len(c.slots) - 1)
}

// Handle implements event.Handler for the controller's internal events.
func (c *Controller) Handle(now uint64, kind uint8, a, b uint64) {
	switch kind {
	case kXferDone:
		c.drain = false
		c.tryStart()
	case kDeliver:
		done := c.slots[a]
		c.slots[a] = nil
		c.free = append(c.free, int32(a))
		done(now)
	}
}
