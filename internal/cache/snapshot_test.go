package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"stms/internal/ckpt"
)

// inFlightMSHR returns a 4-entry file with two live entries, one with
// two merged waiters, and one retired entry and waiter on the free
// lists.
func inFlightMSHR() *MSHR {
	m := NewMSHR(4, func(now, a, b uint64) {})
	m.AllocateW(10, 1, 2)
	m.AllocateW(10, 3, 4)
	m.AllocateW(20, 5, 6)
	m.AllocateW(30, 7, 8)
	m.Complete(20, 100)
	return m
}

func mshrSnapshot(m *MSHR) []byte {
	enc := ckpt.NewEncoder()
	m.Snapshot(enc)
	return enc.Payload()
}

func restoreMSHR(data []byte) (*MSHR, error) {
	m := NewMSHR(4, func(now, a, b uint64) {})
	return m, m.Restore(ckpt.NewDecoder(data))
}

// entryCountAt returns the offset of the entry count in an MSHR
// snapshot: after the section, the capacity and the block index.
func entryCountAt(m *MSHR) int {
	enc := ckpt.NewEncoder()
	enc.Section("cache.MSHR")
	enc.Int(m.cap)
	m.idx.Snapshot(enc)
	return len(enc.Payload())
}

func TestMSHRSnapshotRoundTrip(t *testing.T) {
	data := mshrSnapshot(inFlightMSHR())
	r, err := restoreMSHR(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := mshrSnapshot(r); !bytes.Equal(got, data) {
		t.Fatal("restored MSHR snapshots differently")
	}
	var got [][2]uint64
	r.onDone = func(now, a, b uint64) { got = append(got, [2]uint64{a, b}) }
	r.Complete(10, 200)
	if len(got) != 2 || got[0] != [2]uint64{1, 2} || got[1] != [2]uint64{3, 4} {
		t.Fatalf("restored waiters %v, want [1 2] then [3 4]", got)
	}
}

func TestMSHRRestoreRejectsImpossibleState(t *testing.T) {
	huge := func(m *MSHR) []byte {
		data := mshrSnapshot(m)
		binary.LittleEndian.PutUint64(data[entryCountAt(m):], 1<<62)
		return data
	}
	for _, c := range []struct {
		name string
		data func() []byte
	}{
		{"2^62 entries", func() []byte { return huge(inFlightMSHR()) }},
		{"more entries than the capacity", func() []byte {
			m := inFlightMSHR()
			m.entries = append(m.entries, make([]mshrEntry, 3)...)
			return mshrSnapshot(m)
		}},
		{"waiter list head outside the waiters", func() []byte {
			m := inFlightMSHR()
			m.entries[0].head = 9
			return mshrSnapshot(m)
		}},
		{"waiter list tail below nil", func() []byte {
			m := inFlightMSHR()
			m.entries[0].tail = -2
			return mshrSnapshot(m)
		}},
		{"waiter link outside the waiters", func() []byte {
			m := inFlightMSHR()
			m.waiters[0].next = int32(len(m.waiters))
			return mshrSnapshot(m)
		}},
		{"waiter free list outside the waiters", func() []byte {
			m := inFlightMSHR()
			m.freeW = 100
			return mshrSnapshot(m)
		}},
		{"free entry outside the entries", func() []byte {
			m := inFlightMSHR()
			m.freeEnt[0] = 7
			return mshrSnapshot(m)
		}},
		{"more live and free entries than entries", func() []byte {
			m := inFlightMSHR()
			m.freeEnt = append(m.freeEnt, 0)
			return mshrSnapshot(m)
		}},
		{"live waiter list loops", func() []byte {
			m := inFlightMSHR()
			i, _ := m.idx.Get(10)
			m.waiters[m.entries[i].tail].next = m.entries[i].head
			return mshrSnapshot(m)
		}},
		{"block mapped outside the entries", func() []byte {
			m := inFlightMSHR()
			m.idx.Put(10, 5)
			return mshrSnapshot(m)
		}},
	} {
		if _, err := restoreMSHR(c.data()); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", c.name, err)
		}
	}
}

// FuzzMSHRRestore: whatever bytes it is handed, MSHR.Restore restores
// or returns an error; it never panics. The seeds are a real snapshot
// with merged waiters and free entries, and an entry count of 2^62.
func FuzzMSHRRestore(f *testing.F) {
	m := inFlightMSHR()
	f.Add(mshrSnapshot(m))
	data := mshrSnapshot(m)
	binary.LittleEndian.PutUint64(data[entryCountAt(m):], 1<<62)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		restoreMSHR(data)
	})
}

// filledCache returns a cache of 4 sets with the given associativity
// (packed up to 16 ways, byte slices above), one set full and dirty in
// part, one holding a single line, and the rest empty.
func filledCache(assoc int) *Cache {
	c := New(Config{Name: "T", SizeBytes: 4 * assoc * 64, Assoc: assoc})
	for i := range assoc {
		c.Fill(uint64(4*i+1), i%3 == 0)
	}
	c.Access(5, true)
	c.Fill(6, false)
	return c
}

func cacheSnapshot(c *Cache) []byte {
	enc := ckpt.NewEncoder()
	c.Snapshot(enc)
	return enc.Payload()
}

func TestCacheRestoreRejectsImpossibleState(t *testing.T) {
	for _, c := range []struct {
		name  string
		assoc int
		bad   func(c *Cache)
	}{
		{"LRU word names a way twice", 4, func(c *Cache) { c.lruW[1] = 0x0011 | 2<<8 | 3<<12 }},
		{"LRU word names a way past the set", 4, func(c *Cache) { c.lruW[1] ^= 0x7 }},
		{"LRU word has a high nibble", 4, func(c *Cache) { c.lruW[1] |= 1 << 16 }},
		{"validity bit above the ways", 4, func(c *Cache) { c.validM[2] |= 1 << 4 }},
		{"dirty bit above the ways", 4, func(c *Cache) { c.dirtyM[0] |= 1 << 31 }},
		{"invalid way holds a block", 4, func(c *Cache) { c.tags[2*4+3] = 10 }},
		{"valid way holds another set's block", 4, func(c *Cache) { c.tags[1*4+2] = 2 }},
		{"valid way holds invalidTag", 4, func(c *Cache) { c.tags[1*4+2] = invalidTag }},
		{"one block in two ways", 4, func(c *Cache) { c.tags[1*4+2] = c.tags[1*4+0] }},
		{"tag array of the wrong length", 4, func(c *Cache) { c.tags = c.tags[:len(c.tags)-1] }},
		{"fallback LRU order names a way twice", 32, func(c *Cache) { c.lru[32+5] = c.lru[32+6] }},
		{"fallback LRU order names a way past the set", 32, func(c *Cache) { c.lru[32] = 40 }},
		{"fallback invalid way holds a block", 32, func(c *Cache) { c.tags[3*32] = 7 }},
		{"fallback one block in two ways", 32, func(c *Cache) { c.tags[32+9] = c.tags[32+30] }},
	} {
		bad := filledCache(c.assoc)
		c.bad(bad)
		target := filledCache(c.assoc)
		target.Fill(3, true)
		before := cacheSnapshot(target)
		if err := target.Restore(ckpt.NewDecoder(cacheSnapshot(bad))); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", c.name, err)
		}
		if !bytes.Equal(cacheSnapshot(target), before) {
			t.Errorf("%s: a rejected Restore changed the cache", c.name)
		}
	}
	for _, assoc := range []int{4, 16, 32} {
		src := filledCache(assoc)
		r := New(src.cfg)
		if err := r.Restore(ckpt.NewDecoder(cacheSnapshot(src))); err != nil {
			t.Fatalf("%d ways: valid snapshot rejected: %v", assoc, err)
		}
		if !bytes.Equal(cacheSnapshot(r), cacheSnapshot(src)) {
			t.Fatalf("%d ways: restored cache snapshots differently", assoc)
		}
	}
}

// FuzzCacheRestore: whatever bytes it is handed, Cache.Restore restores
// or returns an error, and a restored cache then serves accesses, fills
// and invalidations over every set without panicking. The seeds are
// snapshots of a packed and a byte-slice cache.
func FuzzCacheRestore(f *testing.F) {
	f.Add(cacheSnapshot(filledCache(4)))
	f.Add(cacheSnapshot(filledCache(32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, assoc := range []int{4, 32} {
			c := New(filledCache(assoc).cfg)
			if c.Restore(ckpt.NewDecoder(data)) != nil {
				continue
			}
			for blk := uint64(0); blk < uint64(3*assoc*c.Sets()); blk++ {
				c.Access(blk%37, blk%2 == 0)
				c.Fill(blk, blk%3 == 0)
				c.Invalidate(blk / 2)
			}
		}
	})
}
