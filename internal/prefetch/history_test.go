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

// newHistory creates a history of capEntries entries over a private log.
func newHistory(capEntries uint64) *History { return NewLog(capEntries).history() }

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
			h, ref := newHistory(c), &refHistory{cap: c}
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
					h = newHistory(c)
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
		h := newHistory(100)
		if err := h.Restore(section(100, c.head, c.n)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("head %d, %d entries: Restore error %v, want ckpt.ErrCorrupt", c.head, c.n, err)
		}
	}
	h := newHistory(100)
	if err := h.Restore(section(100, 1000, 100)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := h.Get(995); !ok {
		t.Fatal("Get(995) not live after restoring a full window")
	}
}

// sharedPair returns two views over one log of capacity c.
func sharedPair(c uint64) (a, b *History) {
	l := NewLog(c)
	return l.history(), l.history()
}

// TestSharedLogMarksPerView: a mark set through one view is invisible
// to the other's Get and ReadLine, and survives in its own.
func TestSharedLogMarksPerView(t *testing.T) {
	a, b := sharedPair(64)
	for blk := uint64(100); blk < 130; blk++ {
		a.Append(blk)
		b.Append(blk)
	}
	if !a.Mark(5) {
		t.Fatal("Mark(5) on a live position failed")
	}
	var line Line
	if _, mark, _ := b.Get(5); mark {
		t.Fatal("a's mark shows through b's Get")
	}
	if n, marked, _ := b.ReadLine(0, LineEntries, &line); marked || n != LineEntries {
		t.Fatalf("b's ReadLine stopped at a's mark: %d entries, marked %v", n, marked)
	}
	if _, mark, _ := a.Get(5); !mark {
		t.Fatal("a lost its own mark")
	}
	if n, marked, addr := a.ReadLine(0, LineEntries, &line); !marked || n != 5 || addr != 105 {
		t.Fatalf("a's ReadLine = %d entries, marked %v at %d; want 5, true at 105", n, marked, addr)
	}
}

// TestSharedLogLaggingViewAcrossWrap: between the two views' appends of
// one lockstep step, the lagging view still reads its whole live
// window — its oldest entry included — while the leading view's append
// wraps a capped log, at every capacity down to one entry.
func TestSharedLogLaggingViewAcrossWrap(t *testing.T) {
	for _, c := range []uint64{1, 2, 12, historyPage - 1, historyPage, historyPage + 1} {
		a, b := sharedPair(c)
		for blk := uint64(1); blk <= 3*c+historyPage+5; blk++ {
			a.Append(blk)
			head := b.Head()
			oldest := head - min(head, c)
			for _, pos := range []uint64{oldest, head - 1} {
				if got, _, ok := b.Get(pos); pos < head && (!ok || got != pos+1) {
					t.Fatalf("cap %d, lagging head %d: Get(%d) = %d, %v; want %d", c, head, pos, got, ok, pos+1)
				}
			}
			b.Append(blk)
		}
	}
}

// TestSharedLogDivergenceCaught: a view that appends a block other than
// the one its log holds at that position, or falls more than one
// append behind, panics instead of passing silently.
func TestSharedLogDivergenceCaught(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	a, b := sharedPair(16)
	a.Append(1)
	expectPanic("different block", func() { b.Append(2) })
	a, b = sharedPair(16)
	a.Append(1)
	a.Append(2)
	expectPanic("two appends behind", func() { b.Append(1) })
}

// TestSharedLogSnapshotAndRestore: a sole view snapshots the bytes a
// private history of the same contents does, and restoring a view whose
// log another view shares fails without touching either view.
func TestSharedLogSnapshotAndRestore(t *testing.T) {
	snap := func(h *History) []byte {
		enc := ckpt.NewEncoder()
		h.Snapshot(enc)
		return enc.Payload()
	}
	const c = 3*LineEntries + 1
	for _, n := range []uint64{0, 7, c, c + 1, 5*c + 3} {
		sole, _ := sharedPair(c)
		private := newHistory(c)
		for blk := uint64(1); blk <= n; blk++ {
			for _, h := range []*History{sole, private} {
				h.Append(blk << 3)
				if blk%5 == 0 {
					h.Mark(h.Head() - 2)
				}
			}
		}
		if !bytes.Equal(snap(sole), snap(private)) {
			t.Fatalf("%d appends: a shared log's view snapshots differently from a private history", n)
		}
	}
	a, b := sharedPair(c)
	for blk := uint64(1); blk < 50; blk++ {
		a.Append(blk)
		b.Append(blk)
	}
	src := newHistory(c)
	src.Append(99)
	before := snap(a)
	if err := a.Restore(ckpt.NewDecoder(snap(src))); err == nil {
		t.Fatal("Restore into a shared log succeeded")
	}
	if !bytes.Equal(snap(a), before) || !bytes.Equal(snap(b), before) {
		t.Fatal("a refused Restore changed a view")
	}
}

// TestHistoryAllocationBudget: appending N entries to an Unbounded
// history allocates at most 8·N bytes plus one page of slack and the
// page table; growth by doubling would allocate about twice that.
func TestHistoryAllocationBudget(t *testing.T) {
	const n = 100_000
	h := newHistory(unboundedCap)
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
				h = newHistory(unboundedCap) // bounds the benchmark's footprint
			}
			h.Append(uint64(i))
		}
	})
	b.Run("AppendCapped", func(b *testing.B) {
		h := newHistory(3*historyPage + 77)
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
		h := newHistory(3*historyPage + 77)
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
