package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
)

// parkEnv is fakeEnv with every handler-form meta-data read parked
// instead of completed, so the Meta keeps its in-flight records.
type parkEnv struct{ *fakeEnv }

func (parkEnv) MetaReadH(dram.Class, event.Handler, uint8, uint64, uint64) {}

var (
	noLookup = func(*prefetch.Cursor) {}
	noRead   = func([]uint64, []uint64, bool, uint64) {}
)

// pendingMeta returns a two-core Meta with two lookups and one history
// read in flight, and a retired slot of each on its free list.
func pendingMeta() *Meta {
	m := NewMeta(parkEnv{newFakeEnv()}, smallConfig())
	for i := uint64(0); i < 40; i++ {
		m.Record(int(i%2), 100+i, false)
	}
	for _, blk := range []uint64{100, 102, 104} {
		m.Lookup(0, blk, noLookup)
	}
	m.Handle(0, mkLookupDone, 1, 0)
	m.ReadNext(&prefetch.Cursor{Core: 1, Pos: 3}, 4, noRead)
	m.ReadNext(&prefetch.Cursor{Core: 0, Pos: 5}, 4, noRead)
	m.Handle(0, mkReadDone, 0, 0)
	return m
}

func metaSnapshot(t *testing.T, m *Meta) []byte {
	t.Helper()
	enc := ckpt.NewEncoder()
	if err := m.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Payload()
}

func restoreMeta(data []byte) (*Meta, error) {
	r := NewMeta(newFakeEnv(), smallConfig())
	return r, r.Restore(ckpt.NewDecoder(data),
		func(int) func(*prefetch.Cursor) { return noLookup },
		func(int, uint64) func([]uint64, []uint64, bool, uint64) { return noRead })
}

// slotCountsAt returns the offsets of the lookup and read slot counts in
// m's snapshot: the payload ends with, per kind, the count, the free list
// (length and 4 bytes a slot), each in-use record (a lookup takes 45
// bytes with its index, a read 48) and an 8-byte terminator.
func slotCountsAt(m *Meta, payload []byte) (lookups, reads int) {
	tail := func(slots, free, rec int) int { return 8 + 8 + 4*free + (slots-free)*rec + 8 }
	reads = len(payload) - tail(len(m.reads), len(m.freeRead), 48)
	return reads - tail(len(m.lookups), len(m.freeLook), 45), reads
}

func TestMetaRestorePendingRoundTrip(t *testing.T) {
	m := pendingMeta()
	if len(m.lookups) != 3 || len(m.freeLook) != 1 || len(m.reads) != 2 || len(m.freeRead) != 1 {
		t.Fatalf("fixture has %d lookups (%d free) and %d reads (%d free)", len(m.lookups), len(m.freeLook), len(m.reads), len(m.freeRead))
	}
	data := metaSnapshot(t, m)
	r, err := restoreMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metaSnapshot(t, r), data) {
		t.Fatal("restored Meta snapshots differently")
	}
}

// TestMetaRestoreRejectsImpossibleRecords: pending-record slot counts
// are bounded by the bytes left before they are allocated (they once
// reached make and panicked with "makeslice: len out of range"), and a
// record naming a core the Meta does not have is rejected.
func TestMetaRestoreRejectsImpossibleRecords(t *testing.T) {
	count := func(read bool, v int64) func(*Meta) []byte {
		return func(m *Meta) []byte {
			data := metaSnapshot(t, m)
			at, rd := slotCountsAt(m, data)
			if read {
				at = rd
			}
			binary.LittleEndian.PutUint64(data[at:], uint64(v))
			return data
		}
	}
	edit := func(f func(m *Meta)) func(*Meta) []byte {
		return func(m *Meta) []byte { f(m); return metaSnapshot(t, m) }
	}
	for _, c := range []struct {
		name string
		data func(m *Meta) []byte
	}{
		{"2^62 lookup slots", count(false, 1<<62)},
		{"negative lookup slots", count(false, -1)},
		{"2^40 read slots", count(true, 1<<40)},
		{"negative read slots", count(true, -5)},
		{"lookup issued by a core past the count", edit(func(m *Meta) { m.lookups[0].core = 2 })},
		{"lookup cursor on a core past the count", edit(func(m *Meta) { m.lookups[2].cur.Core = 7 })},
		{"lookup issued by a negative core", edit(func(m *Meta) { m.lookups[0].core = -1 })},
		{"read of a negative core's history", edit(func(m *Meta) { m.reads[1].core = -1 })},
		{"read issued by a core past the count", edit(func(m *Meta) { m.reads[1].eng = 2 })},
		{"free lookup slot past the table", edit(func(m *Meta) { m.freeLook[0] = 3 })},
		{"free read slot below zero", edit(func(m *Meta) { m.freeRead[0] = -1 })},
	} {
		if _, err := restoreMeta(c.data(pendingMeta())); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", c.name, err)
		}
	}
}
