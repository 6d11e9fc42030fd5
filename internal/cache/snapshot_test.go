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
