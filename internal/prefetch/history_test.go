package prefetch

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"stms/internal/ckpt"
)

// unboundedCap mirrors ghb.Unbounded (which imports this package).
const unboundedCap = uint64(1) << 34

// refHistory is the plain-slice model paged storage must match: every
// append ever made, kept forever, with the capacity applied only as the
// live window.
type refHistory struct {
	cap uint64
	all []uint64
}

func (r *refHistory) valid(pos uint64) bool {
	head := uint64(len(r.all))
	return pos < head && head-pos <= r.cap
}

func (r *refHistory) readLine(pos uint64, max int) (addrs, positions []uint64, marked bool, markAddr uint64) {
	max = min(max, LineEntries)
	lineEnd := (pos/LineEntries + 1) * LineEntries
	for p := pos; max > 0 && p < lineEnd && r.valid(p) && len(addrs) < max; p++ {
		if e := r.all[p]; e&markBit != 0 {
			return addrs, positions, true, e &^ markBit
		}
		addrs = append(addrs, r.all[p])
		positions = append(positions, p)
	}
	return addrs, positions, false, 0
}

// snapshot is the prefetch.History section a single flat slice of cap
// slots wrote: slot s holds the latest position congruent to s.
func (r *refHistory) snapshot() []byte {
	head := uint64(len(r.all))
	slots := make([]uint64, min(head, r.cap))
	for p := head - uint64(len(slots)); p < head; p++ {
		slots[p%r.cap] = r.all[p]
	}
	enc := ckpt.NewEncoder()
	enc.Section("prefetch.History")
	enc.U64(r.cap)
	enc.U64(head)
	enc.U64s(slots)
	return enc.Payload()
}

// TestHistoryMatchesSliceModel drives paged histories of every awkward
// capacity through appends, marks, reads and snapshot/restore cycles,
// probing Valid and Get at both edges of the live window and ReadLine
// across page boundaries and the wrap.
func TestHistoryMatchesSliceModel(t *testing.T) {
	caps := []uint64{1, 12, historyPage - 1, historyPage, historyPage + 1, 3*historyPage + 77, unboundedCap}
	for _, c := range caps {
		t.Run(fmt.Sprint(c), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(c)))
			h, ref := NewHistory(c), &refHistory{cap: c}
			appends := 3*min(c, 3*historyPage+77) + 2*historyPage
			var line Line
			check := func(pos uint64) {
				t.Helper()
				blk, mark, ok := h.Get(pos)
				if ok != ref.valid(pos) || h.Valid(pos) != ok {
					t.Fatalf("head %d: Valid/Get(%d) = %v, model %v", h.Head(), pos, ok, ref.valid(pos))
				}
				if ok && (blk != ref.all[pos]&^markBit || mark != (ref.all[pos]&markBit != 0)) {
					t.Fatalf("head %d: Get(%d) = %d,%v, model %#x", h.Head(), pos, blk, mark, ref.all[pos])
				}
				max := 1 + rnd.Intn(LineEntries+2)
				n, marked, markAddr := h.ReadLine(pos, max, &line)
				a, p, m, ma := ref.readLine(pos, max)
				if n != len(a) || marked != m || markAddr != ma ||
					fmt.Sprint(line.Addrs[:n], line.Positions[:n]) != fmt.Sprint(a, p) {
					t.Fatalf("head %d: ReadLine(%d, %d) = %v %v %v %d, model %v %v %v %d",
						h.Head(), pos, max, line.Addrs[:n], line.Positions[:n], marked, markAddr, a, p, m, ma)
				}
			}
			for i := uint64(0); i < appends; i++ {
				blk := rnd.Uint64() >> 2
				if pos := h.Append(blk); pos != i {
					t.Fatalf("Append returned %d, want %d", pos, i)
				}
				ref.all = append(ref.all, blk)
				head := h.Head()
				if rnd.Intn(8) == 0 {
					back := 1 + uint64(rnd.Intn(int(min(head, 2*LineEntries))))
					if h.Mark(head-back) != ref.valid(head-back) {
						t.Fatalf("Mark(%d) disagrees with the model", head-back)
					}
					if ref.valid(head - back) {
						ref.all[head-back] |= markBit
					}
				}
				if rnd.Intn(4) == 0 {
					// Window edges: the oldest live entry, the first
					// stale one, the newest, the head, and one random.
					oldest := head - min(head, c)
					check(oldest)
					if oldest > 0 {
						check(oldest - 1)
					}
					check(head - 1)
					check(head)
					check(uint64(rnd.Int63n(int64(head))))
				}
				if i%(historyPage+5) == historyPage {
					enc := ckpt.NewEncoder()
					h.Snapshot(enc)
					if !bytes.Equal(enc.Payload(), ref.snapshot()) {
						t.Fatalf("head %d: snapshot bytes differ from the flat-slice encoding", head)
					}
					h = NewHistory(c)
					if err := h.Restore(ckpt.NewDecoder(enc.Payload())); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestHistoryRestoreRejectsWrongEntryCount: a snapshot must hold exactly
// min(head, cap) entries. Fewer once let Get index past the restored
// slice and panic.
func TestHistoryRestoreRejectsWrongEntryCount(t *testing.T) {
	section := func(c, head uint64, n int) *ckpt.Decoder {
		enc := ckpt.NewEncoder()
		enc.Section("prefetch.History")
		enc.U64(c)
		enc.U64(head)
		enc.U64s(make([]uint64, n))
		return ckpt.NewDecoder(enc.Payload())
	}
	for _, c := range []struct {
		head uint64
		n    int
	}{{1000, 10}, {1000, 99}, {5, 10}, {5, 4}, {0, 1}} {
		h := NewHistory(100)
		if err := h.Restore(section(100, c.head, c.n)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("head %d, %d entries: Restore error %v, want ckpt.ErrCorrupt", c.head, c.n, err)
		}
	}
	h := NewHistory(100)
	if err := h.Restore(section(100, 1000, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.Get(995); !ok {
		t.Fatal("Get(995) not live after restoring a full window")
	}
}

// TestHistoryAllocationBudget: appending N entries to an Unbounded
// history allocates at most 8·N bytes plus one page of slack and the
// page table; growth by doubling would allocate about twice that.
func TestHistoryAllocationBudget(t *testing.T) {
	const n = 100_000
	h := NewHistory(unboundedCap)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < n; i++ {
		h.Append(i)
	}
	runtime.ReadMemStats(&after)
	pages := (n + historyPage - 1) / historyPage
	budget := uint64(8*n + 8*historyPage + 2*24*pages)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("%d appends allocated %d bytes, budget %d", n, got, budget)
	}
}

// BenchmarkHistory measures the per-entry cost of the history's two hot
// paths: Append into a fresh Unbounded history (page allocation
// included, so B/op is the storage cost per entry) and into a wrapped
// capped one, and ReadLine streaming a wrapped history line by line.
func BenchmarkHistory(b *testing.B) {
	b.Run("AppendUnbounded", func(b *testing.B) {
		b.ReportAllocs()
		var h *History
		for i := 0; i < b.N; i++ {
			if i%(1<<20) == 0 {
				h = NewHistory(unboundedCap) // bounds the benchmark's footprint
			}
			h.Append(uint64(i))
		}
	})
	b.Run("AppendCapped", func(b *testing.B) {
		h := NewHistory(3*historyPage + 77)
		for i := uint64(0); i < h.Cap(); i++ {
			h.Append(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Append(uint64(i))
		}
	})
	b.Run("ReadLine", func(b *testing.B) {
		h := NewHistory(3*historyPage + 77)
		for i := uint64(0); i < 2*h.Cap()+5; i++ {
			h.Append(i)
		}
		oldest := h.Head() - h.Cap()
		var line Line
		b.ReportAllocs()
		b.ResetTimer()
		for i, pos := 0, oldest; i < b.N; i++ {
			n, _, _ := h.ReadLine(pos, LineEntries, &line)
			if pos += uint64(n); n == 0 || pos >= h.Head() {
				pos = oldest
			}
		}
	})
}
