package ghb

import (
	"testing"

	"stms/internal/prefetch"
)

func record(m *Meta, core int, blks ...uint64) {
	for _, b := range blks {
		m.Record(core, b, false)
	}
}

// lookup resolves blk and returns a caller-owned copy of the cursor (the
// backend's cursor is transient scratch per the Metadata contract).
func lookup(t *testing.T, m *Meta, core int, blk uint64) *prefetch.Cursor {
	t.Helper()
	var got *prefetch.Cursor
	m.Lookup(core, blk, func(c *prefetch.Cursor) {
		if c != nil {
			cp := *c
			got = &cp
		}
	})
	return got
}

// readNext is ReadNext plus the caller-side cursor advance the engine
// performs (the backend no longer mutates the cursor).
func readNext(m *Meta, cur *prefetch.Cursor, max int, done func(a, p []uint64, mk bool, ma uint64)) {
	m.ReadNext(cur, max, func(a, p []uint64, mk bool, ma uint64) {
		if n := len(p); n > 0 {
			cur.Pos = p[n-1] + 1
		}
		done(a, p, mk, ma)
	})
}

func TestLookupFindsMostRecent(t *testing.T) {
	m := New(nil, Config{Cores: 1})
	record(m, 0, 1, 2, 3, 1, 5, 6)
	cur := lookup(t, m, 0, 1)
	if cur == nil {
		t.Fatal("lookup missed")
	}
	// Most recent occurrence of 1 is at position 3; cursor points after.
	if cur.Pos != 4 {
		t.Fatalf("cursor pos = %d, want 4", cur.Pos)
	}
	var addrs []uint64
	m.ReadNext(cur, 12, func(a, p []uint64, marked bool, markAddr uint64) { addrs = a })
	if len(addrs) != 2 || addrs[0] != 5 || addrs[1] != 6 {
		t.Fatalf("successors = %v", addrs)
	}
}

func TestLookupUnknown(t *testing.T) {
	m := New(nil, Config{Cores: 1})
	record(m, 0, 1, 2)
	if cur := lookup(t, m, 0, 99); cur != nil {
		t.Fatal("unknown block found")
	}
	if m.IndexMisses == 0 {
		t.Fatal("miss not counted")
	}
}

func TestCrossCoreLookup(t *testing.T) {
	// Core 1 can find a stream recorded by core 0 (shared index, §4.2).
	m := New(nil, Config{Cores: 2})
	record(m, 0, 10, 11, 12)
	cur := lookup(t, m, 1, 10)
	if cur == nil {
		t.Fatal("cross-core lookup missed")
	}
	if cur.Core != 0 {
		t.Fatalf("cursor core = %d, want 0 (the recording core)", cur.Core)
	}
}

func TestStaleIndexAfterWrap(t *testing.T) {
	m := New(nil, Config{Cores: 1, HistoryEntries: 8})
	record(m, 0, 42)
	for i := uint64(100); i < 120; i++ {
		record(m, 0, i)
	}
	if cur := lookup(t, m, 0, 42); cur != nil {
		t.Fatal("stale pointer should miss")
	}
	if m.IndexStale == 0 {
		t.Fatal("staleness not counted")
	}
	// The stale entry is removed: a second lookup is a plain miss.
	before := m.IndexStale
	lookup(t, m, 0, 42)
	if m.IndexStale != before {
		t.Fatal("stale entry was not removed")
	}
}

func TestIndexLRUCap(t *testing.T) {
	m := New(nil, Config{Cores: 1, IndexEntries: 4})
	record(m, 0, 1, 2, 3, 4)
	if m.IndexLen() != 4 {
		t.Fatalf("index len = %d", m.IndexLen())
	}
	record(m, 0, 5) // evicts 1 (least recently recorded)
	if m.IndexLen() != 4 {
		t.Fatalf("index len = %d after eviction", m.IndexLen())
	}
	if cur := lookup(t, m, 0, 1); cur != nil {
		t.Fatal("evicted entry still found")
	}
	if cur := lookup(t, m, 0, 2); cur == nil {
		t.Fatal("recent entry lost")
	}
}

func TestIndexUpdateRefreshesLRU(t *testing.T) {
	m := New(nil, Config{Cores: 1, IndexEntries: 3})
	record(m, 0, 1, 2, 3)
	record(m, 0, 1) // refresh 1
	record(m, 0, 4) // evicts 2
	if cur := lookup(t, m, 0, 1); cur == nil {
		t.Fatal("refreshed entry evicted")
	}
	if cur := lookup(t, m, 0, 2); cur != nil {
		t.Fatal("LRU entry not evicted")
	}
}

func TestMarkEndAndSkip(t *testing.T) {
	m := New(nil, Config{Cores: 1})
	record(m, 0, 1, 2, 3, 4)
	m.MarkEnd(0, 2)
	cur := lookup(t, m, 0, 1)
	var addrs []uint64
	var marked bool
	var markAddr uint64
	readNext(m, cur, 12, func(a, p []uint64, mk bool, ma uint64) {
		addrs, marked, markAddr = a, mk, ma
	})
	if len(addrs) != 1 || addrs[0] != 2 {
		t.Fatalf("addrs = %v", addrs)
	}
	if !marked || markAddr != 3 {
		t.Fatalf("marked=%v addr=%d", marked, markAddr)
	}
	m.SkipMark(cur)
	readNext(m, cur, 12, func(a, p []uint64, mk bool, ma uint64) { addrs = a })
	if len(addrs) != 1 || addrs[0] != 4 {
		t.Fatalf("after skip: %v", addrs)
	}
}

func TestReadNextAdvancesCursor(t *testing.T) {
	m := New(nil, Config{Cores: 1})
	blks := make([]uint64, 30)
	for i := range blks {
		blks[i] = uint64(100 + i)
	}
	record(m, 0, blks...)
	cur := lookup(t, m, 0, 100)
	var total []uint64
	for i := 0; i < 5; i++ {
		readNext(m, cur, 12, func(a, p []uint64, mk bool, ma uint64) {
			total = append(total, a...)
		})
	}
	if len(total) != 29 {
		t.Fatalf("read %d successors, want 29", len(total))
	}
	for i, b := range total {
		if b != uint64(101+i) {
			t.Fatalf("successor %d = %d", i, b)
		}
	}
}

func TestPackUnpack(t *testing.T) {
	for _, core := range []int{0, 1, 3, 7} {
		for _, pos := range []uint64{0, 1, 1 << 40, 1<<56 - 1} {
			c, p := unpack(pack(core, pos))
			if c != core || p != pos {
				t.Fatalf("pack/unpack(%d,%d) = (%d,%d)", core, pos, c, p)
			}
		}
	}
}

func TestDefaultConfigUnbounded(t *testing.T) {
	m := New(nil, DefaultConfig(4))
	// A million records must not wrap.
	for i := uint64(0); i < 1_000_000; i++ {
		m.Record(int(i%4), i, false)
	}
	if cur := lookup(t, m, 0, 0); cur == nil {
		t.Fatal("first record wrapped out of an unbounded history")
	}
}
