package ghb

import (
	"bytes"
	"fmt"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/trace"
)

// refMeta models the idealized index with a builtin map: each key keeps
// its latest packed pointer and the record sequence that wrote it, and a
// capped index evicts the key with the oldest sequence.
type refMeta struct {
	indexCap, histCap uint64
	hist              [][]uint64 // every append per core
	idx               map[uint64][2]uint64
	seq, peak         uint64
}

func (r *refMeta) lookup(blk uint64) (core int, pos uint64, hit, stale bool) {
	e, ok := r.idx[blk]
	if !ok {
		return 0, 0, false, false
	}
	core, pos = unpack(e[0])
	h := r.hist[core]
	if head := uint64(len(h)); head-pos > r.histCap || h[pos] != blk {
		delete(r.idx, blk)
		return 0, 0, false, true
	}
	return core, pos, true, false
}

func (r *refMeta) record(core int, blk uint64) {
	if _, ok := r.idx[blk]; !ok && r.indexCap > 0 && uint64(len(r.idx)) >= r.indexCap {
		victim, oldest := uint64(0), ^uint64(0)
		for k, e := range r.idx {
			if e[1] < oldest {
				victim, oldest = k, e[1]
			}
		}
		delete(r.idx, victim)
	}
	r.idx[blk] = [2]uint64{pack(core, uint64(len(r.hist[core]))), r.seq}
	r.hist[core] = append(r.hist[core], blk)
	r.seq++
	r.peak = max(r.peak, uint64(len(r.idx)))
}

// missStream interleaves the first n block addresses of each core's
// oltp-db2 trace, the lookup-then-record order the stream engine gives a
// miss.
func missStream(cores, n int) [][2]uint64 {
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		panic(err)
	}
	lib := trace.NewLibrary(spec.Scaled(0.0625), 42)
	gens := make([]trace.Generator, cores)
	for c := range gens {
		gens[c] = trace.NewGenerator(lib, c, 42)
	}
	frames := make([]*trace.Frame, cores)
	for c, g := range gens {
		frames[c] = trace.NewFrameCap(n)
		g.ReadFrame(frames[c])
	}
	var out [][2]uint64
	for i := 0; i < n; i++ {
		for c, f := range frames {
			out = append(out, [2]uint64{uint64(c), f.Block[i]})
		}
	}
	return out
}

// TestIndexMatchesReferenceMap replays a recorded miss stream through the
// unbounded index, the Figure 5 left setting (capped history, unbounded
// index: lookups drop stale pointers and put reuses their slots) and the
// Figure 1 left setting (capped LRU index), checking every lookup and the
// index population against a builtin-map model, with a checkpoint
// round trip midway.
func TestIndexMatchesReferenceMap(t *testing.T) {
	const cores = 4
	stream := missStream(cores, 20_000)
	for _, cfg := range []Config{
		{Cores: cores},
		{Cores: cores, HistoryEntries: 512},
		{Cores: cores, IndexEntries: 1000},
	} {
		t.Run(fmt.Sprintf("hist%d-index%d", cfg.HistoryEntries, cfg.IndexEntries), func(t *testing.T) {
			m := New(nil, cfg)
			ref := &refMeta{indexCap: cfg.IndexEntries, histCap: m.History(0).Cap(),
				hist: make([][]uint64, cores), idx: map[uint64][2]uint64{}}
			var stale uint64
			for i, ev := range stream {
				core, blk := int(ev[0]), ev[1]
				cur := m.LookupSync(core, blk)
				rc, rp, hit, rs := ref.lookup(blk)
				if rs {
					stale++
				}
				if (cur != nil) != hit || (hit && (cur.Core != rc || cur.Pos != rp+1)) {
					t.Fatalf("miss %d: lookup(%d) = %+v, model hit %v at core %d pos %d", i, blk, cur, hit, rc, rp)
				}
				m.Record(core, blk, false)
				ref.record(core, blk)
				if m.IndexLen() != len(ref.idx) {
					t.Fatalf("miss %d: index holds %d entries, model %d", i, m.IndexLen(), len(ref.idx))
				}
				if i == len(stream)/2 {
					m = roundTrip(t, m)
					ref.peak = uint64(len(ref.idx)) // a restore compacts the slots
				}
			}
			if m.IndexStale != stale {
				t.Fatalf("IndexStale %d, model %d", m.IndexStale, stale)
			}
			if x, ok := m.idx.(*flatIndex); ok && uint64(x.used) != ref.peak {
				t.Fatalf("unbounded index handed out %d slots for a peak of %d entries", x.used, ref.peak)
			}
			if cfg.HistoryEntries != 0 && stale == 0 {
				t.Fatal("capped history produced no stale pointers: the slot-reuse path went unexercised")
			}
		})
	}
}

// roundTrip restores a snapshot of m into a fresh Meta and checks that
// the copy snapshots to the same bytes.
func roundTrip(t *testing.T, m *Meta) *Meta {
	t.Helper()
	enc := ckpt.NewEncoder()
	if err := m.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	r := New(nil, m.cfg)
	if err := r.Restore(ckpt.NewDecoder(enc.Payload())); err != nil {
		t.Fatal(err)
	}
	again := ckpt.NewEncoder()
	if err := r.Snapshot(again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Payload(), again.Payload()) {
		t.Fatal("restored index snapshots to different bytes")
	}
	return r
}
