package event

import (
	"math/rand"
	"testing"
	"unsafe"
)

// refEngine is the original binary-heap scheduler, kept verbatim as the
// ordering oracle for the calendar queue: any schedule must fire in exactly
// the same (time, sequence) order on both.
type refEngine struct {
	now   uint64
	seq   uint64
	items []refItem
}

type refItem struct {
	when uint64
	seq  uint64
	fn   func()
}

func newRefEngine() *refEngine { return &refEngine{items: make([]refItem, 0, 1024)} }

func (e *refEngine) Now() uint64  { return e.now }
func (e *refEngine) Pending() int { return len(e.items) }

func (e *refEngine) Schedule(delay uint64, fn func()) { e.At(e.now+delay, fn) }

func (e *refEngine) At(when uint64, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	e.items = append(e.items, refItem{when: when, seq: e.seq, fn: fn})
	e.up(len(e.items) - 1)
}

func (e *refEngine) Step() bool {
	if len(e.items) == 0 {
		return false
	}
	top := e.items[0]
	n := len(e.items) - 1
	e.items[0] = e.items[n]
	e.items = e.items[:n]
	if n > 0 {
		e.down(0)
	}
	e.now = top.when
	top.fn()
	return true
}

func (e *refEngine) RunUntil(t uint64) {
	for len(e.items) > 0 && e.items[0].when <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *refEngine) Drain(stop func() bool) {
	for len(e.items) > 0 {
		if stop != nil && stop() {
			return
		}
		e.Step()
	}
}

func (e *refEngine) less(i, j int) bool {
	a, b := &e.items[i], &e.items[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *refEngine) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.items[i], e.items[parent] = e.items[parent], e.items[i]
		i = parent
	}
}

func (e *refEngine) down(i int) {
	n := len(e.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.less(l, smallest) {
			smallest = l
		}
		if r < n && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		e.items[i], e.items[smallest] = e.items[smallest], e.items[i]
		i = smallest
	}
}

// fnHandler adapts a func to Handler, so tests can schedule closures
// through the engine's ScheduleH/AtH.
type fnHandler func()

func (f fnHandler) Handle(uint64, uint8, uint64, uint64) { f() }

// calendar gives Engine the reference heap's closure-based Schedule/At,
// scheduling through ScheduleH/AtH with a fnHandler.
type calendar struct{ *Engine }

func (c calendar) Schedule(delay uint64, fn func()) { c.ScheduleH(delay, fnHandler(fn), 0, 0, 0) }

func (c calendar) At(when uint64, fn func()) { c.AtH(when, fnHandler(fn), 0, 0, 0) }

// scheduler abstracts both engines for the property driver.
type scheduler interface {
	Now() uint64
	Pending() int
	Schedule(delay uint64, fn func())
	At(when uint64, fn func())
	Step() bool
	RunUntil(t uint64)
	Drain(stop func() bool)
}

// opTrace drives a scheduler through a reproducible random workload —
// short delays, same-cycle bursts, far-future overflow delays, past-time
// At calls, nested rescheduling — and records (id, fireTime) pairs.
func opTrace(s scheduler, seed int64, n int) []uint64 {
	rnd := rand.New(rand.NewSource(seed))
	var log []uint64
	id := uint64(0)
	var schedule func(depth int)
	schedule = func(depth int) {
		myID := id
		id++
		var when uint64
		switch rnd.Intn(10) {
		case 0: // same-cycle burst
			when = s.Now()
		case 1: // past time, must clamp
			if s.Now() > 50 {
				when = s.Now() - uint64(rnd.Intn(50))
			}
		case 2: // far future: overflow-heap territory
			when = s.Now() + uint64(rnd.Intn(10*wheelSize))
		default: // realistic short delays (DRAM, hit latencies, quanta)
			when = s.Now() + uint64(rnd.Intn(300))
		}
		s.At(when, func() {
			log = append(log, myID, s.Now())
			if depth > 0 && rnd.Intn(3) != 0 {
				schedule(depth - 1)
			}
		})
	}
	for i := 0; i < n; i++ {
		schedule(3)
	}
	s.Drain(nil)
	log = append(log, s.Now())
	return log
}

// TestCalendarMatchesReferenceHeap checks bit-exact firing order, fire
// times, and final clock between the calendar queue and the reference
// binary heap across many random workloads.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		got := opTrace(calendar{NewEngine()}, seed, 40)
		want := opTrace(newRefEngine(), seed, 40)
		if len(got) != len(want) {
			t.Fatalf("seed %d: event count diverged: %d vs %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverged at log position %d: calendar %d, heap %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestCalendarRunUntilMatchesReference checks RunUntil's partial-drain
// semantics (fire through t, clock lands on t, remainder pending) against
// the reference on randomized schedules.
func TestCalendarRunUntilMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		cal, ref := calendar{NewEngine()}, newRefEngine()
		var calLog, refLog []uint64
		whens := make([]uint64, 200)
		for i := range whens {
			whens[i] = uint64(rnd.Intn(3 * wheelSize))
		}
		for i, w := range whens {
			i := i
			cal.At(w, func() { calLog = append(calLog, uint64(i), cal.Now()) })
			ref.At(w, func() { refLog = append(refLog, uint64(i), ref.Now()) })
		}
		for _, cut := range []uint64{0, 17, wheelSize - 1, wheelSize, wheelSize + 1, 2 * wheelSize, 4 * wheelSize} {
			cal.RunUntil(cut)
			ref.RunUntil(cut)
			if cal.Now() != ref.Now() {
				t.Fatalf("seed %d cut %d: Now() %d vs %d", seed, cut, cal.Now(), ref.Now())
			}
			if cal.Pending() != ref.Pending() {
				t.Fatalf("seed %d cut %d: Pending() %d vs %d", seed, cut, cal.Pending(), ref.Pending())
			}
		}
		cal.Drain(nil)
		ref.Drain(nil)
		if len(calLog) != len(refLog) {
			t.Fatalf("seed %d: log lengths %d vs %d", seed, len(calLog), len(refLog))
		}
		for i := range calLog {
			if calLog[i] != refLog[i] {
				t.Fatalf("seed %d: diverged at %d: %d vs %d", seed, i, calLog[i], refLog[i])
			}
		}
	}
}

// TestHandlerEventsInterleaveWithClosures checks that handler events and
// closures adapted through fnHandler share one deterministic order, and
// that payloads arrive intact.
type recHandler struct {
	log *[]uint64
}

func (h recHandler) Handle(now uint64, kind uint8, a, b uint64) {
	*h.log = append(*h.log, now, uint64(kind), a, b)
}

func TestHandlerEventsInterleaveWithClosures(t *testing.T) {
	e := NewEngine()
	var log []uint64
	h := recHandler{log: &log}
	e.ScheduleH(10, h, 1, 100, 200)
	e.ScheduleH(10, fnHandler(func() { log = append(log, e.Now(), 99, 0, 0) }), 0, 0, 0)
	e.ScheduleH(10, h, 2, 300, 400)
	e.ScheduleH(5, h, 3, 1, 2)
	e.Drain(nil)
	want := []uint64{
		5, 3, 1, 2,
		10, 1, 100, 200,
		10, 99, 0, 0,
		10, 2, 300, 400,
	}
	if len(log) != len(want) {
		t.Fatalf("log length %d, want %d: %v", len(log), len(want), log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %d, want %d (full: %v)", i, log[i], want[i], log)
		}
	}
}

// TestEventIsOneLine pins the pooled record at one 64-byte host cache
// line.
func TestEventIsOneLine(t *testing.T) {
	if s := unsafe.Sizeof(Event{}); s != 64 {
		t.Fatalf("Event is %d bytes, want one 64-byte line", s)
	}
}

// TestEventRecordsRecycle verifies the free list actually recycles records
// (steady-state scheduling allocates no new Events).
func TestEventRecordsRecycle(t *testing.T) {
	e := NewEngine()
	h := recHandler{log: new([]uint64)}
	// Prime the pool.
	for i := 0; i < 100; i++ {
		e.ScheduleH(uint64(i), h, 0, 0, 0)
	}
	e.Drain(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleH(7, h, 0, 0, 0)
		e.Drain(nil)
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocated %.1f objects per op, want 0", allocs)
	}
}
