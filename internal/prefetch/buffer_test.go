package prefetch

import (
	"testing"
	"testing/quick"
)

func TestBufferInsertProbeReady(t *testing.T) {
	b := NewBuffer(4)
	if !b.Insert(10, 1, 100) {
		t.Fatal("insert failed")
	}
	// Still in flight.
	res, _, _ := b.Probe(10, nil, 0, 0, 0)
	if res.State != ProbeInFlight {
		t.Fatalf("state = %v, want in-flight", res.State)
	}
	b2 := NewBuffer(4)
	b2.Insert(10, 1, 100)
	b2.Arrived(10, 50)
	res, stream, pos := b2.Probe(10, nil, 0, 0, 0)
	if res.State != ProbeReady || res.ReadyAt != 50 {
		t.Fatalf("res = %+v", res)
	}
	if stream != 1 || pos != 100 {
		t.Fatalf("stream/pos = %d/%d", stream, pos)
	}
	// Consumed: next probe misses.
	res, _, _ = b2.Probe(10, nil, 0, 0, 0)
	if res.State != ProbeMiss {
		t.Fatal("block should have been consumed")
	}
	if b2.FullHits != 1 {
		t.Fatalf("full hits = %d", b2.FullHits)
	}
}

func TestBufferDuplicateInsert(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(10, 1, 0)
	if b.Insert(10, 1, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestBufferEvictionOtherStreamOnly(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, 7, 0)
	b.Insert(2, 7, 1)
	b.Arrived(1, 10)
	b.Arrived(2, 10)
	// Same stream cannot evict its own ready blocks.
	if b.HasSpaceFor(7) {
		t.Fatal("stream 7 should not evict its own blocks")
	}
	if b.Insert(3, 7, 2) {
		t.Fatal("insert should fail for same stream")
	}
	// A different stream can.
	if !b.HasSpaceFor(8) {
		t.Fatal("stream 8 should find space by evicting stream 7")
	}
	if !b.Insert(3, 8, 0) {
		t.Fatal("insert for new stream failed")
	}
	if b.EvictedUnused != 1 {
		t.Fatalf("evicted = %d", b.EvictedUnused)
	}
	// Oldest (block 1) was evicted.
	if b.Contains(1) || !b.Contains(2) {
		t.Fatal("wrong victim")
	}
}

func TestBufferInFlightUnevictable(t *testing.T) {
	b := NewBuffer(2)
	b.Insert(1, 7, 0)
	b.Insert(2, 7, 1)
	// Nothing has arrived: nothing is evictable for anyone.
	if b.HasSpaceFor(8) {
		t.Fatal("in-flight blocks must not be evicted")
	}
}

// testWaiter records fire times through the event.Handler waiter
// interface (the payload words are ignored).
type testWaiter struct{ log *[]uint64 }

func (w testWaiter) Handle(now uint64, kind uint8, a, b uint64) { *w.log = append(*w.log, now) }

func TestBufferPartialHitWaiters(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(5, 1, 0)
	var notified []uint64
	res, _, _ := b.Probe(5, testWaiter{&notified}, 0, 0, 0)
	if res.State != ProbeInFlight {
		t.Fatal("expected in-flight")
	}
	// Second demand for the same in-flight block.
	b.Probe(5, testWaiter{&notified}, 0, 0, 0)
	if b.PartialHits != 1 {
		t.Fatalf("partial hits = %d, want 1 (claim counted once)", b.PartialHits)
	}
	_, _, claimed, ok := b.Arrived(5, 77)
	if !ok || !claimed {
		t.Fatal("arrival should report claim")
	}
	if len(notified) != 2 || notified[0] != 77 || notified[1] != 77 {
		t.Fatalf("waiters = %v", notified)
	}
	if b.Contains(5) {
		t.Fatal("claimed block should leave on arrival")
	}
}

func TestBufferDropStream(t *testing.T) {
	b := NewBuffer(8)
	b.Insert(1, 1, 0)
	b.Insert(2, 1, 1)
	b.Insert(3, 2, 0)
	b.Arrived(1, 5)
	b.Arrived(3, 5)
	b.DropStream(1)
	// Ready unclaimed block of stream 1 dropped; in-flight stays.
	if b.Contains(1) {
		t.Fatal("ready block of dropped stream should go")
	}
	if !b.Contains(2) {
		t.Fatal("in-flight block must stay")
	}
	if !b.Contains(3) {
		t.Fatal("other stream must stay")
	}
	if b.EvictedUnused != 1 {
		t.Fatalf("evicted = %d", b.EvictedUnused)
	}
}

func TestBufferFlushStats(t *testing.T) {
	b := NewBuffer(4)
	b.Insert(1, 1, 0)
	b.Insert(2, 1, 0)
	b.Arrived(1, 5)
	b.FlushStats()
	if b.EvictedUnused != 1 {
		t.Fatalf("flush counted %d, want 1 (only the ready one)", b.EvictedUnused)
	}
}

func TestBufferCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBuffer(8)
		for _, op := range ops {
			blk := uint64(op % 64)
			stream := uint64(op % 3)
			switch (op >> 6) % 3 {
			case 0:
				b.Insert(blk, stream, 0)
			case 1:
				b.Arrived(blk, uint64(op))
			case 2:
				b.Probe(blk, nil, 0, 0, 0)
			}
			if b.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryAppendGet(t *testing.T) {
	h := newHistory(16)
	for i := uint64(0); i < 10; i++ {
		if pos := h.Append(i * 100); pos != i {
			t.Fatalf("pos = %d, want %d", pos, i)
		}
	}
	blk, mark, ok := h.Get(3)
	if !ok || blk != 300 || mark {
		t.Fatalf("Get(3) = %d,%v,%v", blk, mark, ok)
	}
}

func TestHistoryWrapInvalidation(t *testing.T) {
	h := newHistory(8)
	for i := uint64(0); i < 20; i++ {
		h.Append(i)
	}
	if h.Valid(11) {
		t.Fatal("position 11 should be overwritten (head=20, cap=8)")
	}
	if !h.Valid(12) {
		t.Fatal("position 12 should still be live")
	}
	blk, _, ok := h.Get(15)
	if !ok || blk != 15 {
		t.Fatalf("Get(15) = %d,%v", blk, ok)
	}
	if h.Valid(20) || h.Valid(25) {
		t.Fatal("future positions must be invalid")
	}
}

func TestHistoryMark(t *testing.T) {
	h := newHistory(8)
	h.Append(42)
	if !h.Mark(0) {
		t.Fatal("mark failed")
	}
	blk, mark, ok := h.Get(0)
	if !ok || !mark || blk != 42 {
		t.Fatalf("marked entry = %d,%v,%v", blk, mark, ok)
	}
	if h.Mark(5) {
		t.Fatal("marking an invalid position should fail")
	}
}

func TestHistoryReadLineStopsAtLineEnd(t *testing.T) {
	h := newHistory(64)
	for i := uint64(0); i < 30; i++ {
		h.Append(1000 + i)
	}
	var line Line
	n, marked, _ := h.ReadLine(2, 100, &line)
	// Line 0 holds positions 0..11, so from 2 we get 10 entries.
	if n != 10 || marked {
		t.Fatalf("got %d addrs, marked=%v", n, marked)
	}
	if line.Addrs[0] != 1002 || line.Positions[9] != 11 {
		t.Fatalf("addrs/positions wrong: %v %v", line.Addrs[0], line.Positions[9])
	}
	// Next line read.
	n, _, _ = h.ReadLine(12, 100, &line)
	if n != 12 {
		t.Fatalf("full line read returned %d", n)
	}
}

func TestHistoryReadLineStopsAtMark(t *testing.T) {
	h := newHistory(64)
	for i := uint64(0); i < 12; i++ {
		h.Append(i)
	}
	h.Mark(5)
	var line Line
	n, marked, markAddr := h.ReadLine(2, 100, &line)
	if n != 3 { // positions 2,3,4
		t.Fatalf("n = %d", n)
	}
	if !marked || markAddr != 5 {
		t.Fatalf("marked=%v addr=%d", marked, markAddr)
	}
}

func TestHistoryReadLineRespectsMax(t *testing.T) {
	h := newHistory(64)
	for i := uint64(0); i < 12; i++ {
		h.Append(i)
	}
	var line Line
	n, _, _ := h.ReadLine(0, 4, &line)
	if n != 4 {
		t.Fatalf("max ignored: %d", n)
	}
}

func TestHistoryReadLineAtHead(t *testing.T) {
	h := newHistory(64)
	h.Append(1)
	var line Line
	n, marked, _ := h.ReadLine(1, 10, &line)
	if n != 0 || marked {
		t.Fatal("reading at head should be empty")
	}
}

// TestHistoryPositionsAlwaysConsistent exercises wraparound with random
// append/read interleavings.
func TestHistoryPositionsAlwaysConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		h := newHistory(16)
		appended := []uint64{}
		for _, op := range ops {
			if op%3 != 0 {
				h.Append(uint64(op) * 7)
				appended = append(appended, uint64(op)*7)
			} else if len(appended) > 0 {
				pos := uint64(int(op) % len(appended))
				blk, _, ok := h.Get(pos)
				if ok && blk != appended[pos] {
					return false // live entry must match what was appended
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
