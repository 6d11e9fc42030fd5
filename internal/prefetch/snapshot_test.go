package prefetch

import (
	"bytes"
	"errors"
	"testing"

	"stms/internal/ckpt"
	"stms/internal/event"
)

// snapWaiter is the one demand waiter the snapshot tests register.
var snapWaiter = testWaiter{new([]uint64)}

func snapIDOf(h event.Handler) (uint32, bool) { return 0, h == snapWaiter }

func snapHandlerOf(id uint32) (event.Handler, bool) { return snapWaiter, id == 0 }

// snapEngine returns a fresh two-core engine over a DRAM-backed env.
func snapEngine() (*Engine, *dramEnv) {
	env := newDramEnv()
	meta := newScriptMeta()
	for trig, n := range map[uint64]uint64{100: 60, 200: 30} {
		s := make([]uint64, n)
		for i := range s {
			s[i] = trig*10 + uint64(i)
		}
		meta.streams[trig] = s
	}
	return NewEngine(env, meta, DefaultEngineConfig(2)), env
}

// inFlightEngine is an engine caught mid-run: both cores follow a
// stream, some fetches have landed and some have not, and a demand
// waiter is parked on an in-flight block.
func inFlightEngine(t testing.TB) *Engine {
	e, env := snapEngine()
	e.TriggerMiss(0, 100)
	e.TriggerMiss(1, 200)
	env.eng.RunUntil(env.eng.Now() + 190)
	for _, blk := range []uint64{1000, 1001, 2000} {
		e.Probe(int(blk/1000-1), blk, nil, 0, 0, 0)
	}
	if res := e.Probe(0, 1008, snapWaiter, 0, 0, 0); res.State != ProbeInFlight {
		t.Fatalf("block 1008: state %v, want in flight", res.State)
	}
	return e
}

func engineSnapshot(t testing.TB, e *Engine) []byte {
	enc := ckpt.NewEncoder()
	if err := e.Snapshot(enc, snapIDOf); err != nil {
		t.Fatal(err)
	}
	return enc.Payload()
}

func restoreEngine(data []byte) (*Engine, error) {
	e, _ := snapEngine()
	return e, e.Restore(ckpt.NewDecoder(data), snapHandlerOf)
}

func TestEngineSnapshotRoundTrip(t *testing.T) {
	data := engineSnapshot(t, inFlightEngine(t))
	e, err := restoreEngine(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := engineSnapshot(t, e); !bytes.Equal(again, data) {
		t.Fatal("restored engine snapshots to different bytes")
	}
}

// TestEngineRestoreRejectsImpossibleState: each snapshot below decodes
// cleanly but describes a state no engine can reach. Restore must
// refuse it with ckpt.ErrCorrupt rather than leave a queue index or a
// cursor that panics on first use.
func TestEngineRestoreRejectsImpossibleState(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Engine)
	}{
		{"queue head far past the ring", func(e *Engine) { e.core[0].qHead = 1000 }},
		{"queue head at the capacity", func(e *Engine) { e.core[1].qHead = len(e.core[1].q) }},
		{"negative queue head", func(e *Engine) { e.core[0].qHead = -1 }},
		{"queue length past the capacity", func(e *Engine) { e.core[0].qLen = len(e.core[0].q) + 1 }},
		{"negative queue length", func(e *Engine) { e.core[1].qLen = -1 }},
		{"cursor on a missing core", func(e *Engine) { e.core[0].cur.Core = 2 }},
		{"negative cursor core", func(e *Engine) { e.core[1].cur.Core = -1 }},
		{"stream lengths without weights", func(e *Engine) { e.st.StreamLens.SetSnapshot([]float64{3}, nil, false) }},
	} {
		e := inFlightEngine(t)
		c.edit(e)
		if _, err := restoreEngine(engineSnapshot(t, e)); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", c.name, err)
		}
	}
	// The edges of the valid ranges restore.
	e := inFlightEngine(t)
	e.core[0].qHead, e.core[0].qLen, e.core[0].cur.Core = len(e.core[0].q)-1, len(e.core[0].q), 1
	if _, err := restoreEngine(engineSnapshot(t, e)); err != nil {
		t.Errorf("last queue slot, full queue, cursor on the last core: %v", err)
	}
}

// bufferSnapshot hand-encodes a Buffer snapshot: count entries of which
// blks are written out (ready, unclaimed, owned by stream 1), no
// waiters, zero statistics.
func bufferSnapshot(capacity, count int, blks ...uint64) []byte {
	enc := ckpt.NewEncoder()
	enc.Section("prefetch.Buffer")
	enc.Int(capacity)
	enc.Int(count)
	for _, blk := range blks {
		enc.U64(blk)
		enc.Bool(true)
		enc.U64(10)
		enc.Bool(false)
		enc.U64(1)
		enc.U64(0)
		enc.Int(0)
	}
	for range 5 {
		enc.U64(0)
	}
	return enc.Payload()
}

func TestBufferRestoreRejectsImpossibleState(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"more entries than the capacity", bufferSnapshot(4, 5, 1, 2, 3, 4, 5)},
		{"negative entry count", bufferSnapshot(4, -1)},
		{"one block twice", bufferSnapshot(4, 2, 7, 7)},
		{"one block twice, apart", bufferSnapshot(4, 3, 7, 8, 7)},
		{"the reserved block", bufferSnapshot(4, 1, ^uint64(0))},
	} {
		b := NewBuffer(4)
		if err := b.Restore(ckpt.NewDecoder(c.data), snapHandlerOf); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("%s: Restore error %v, want ckpt.ErrCorrupt", c.name, err)
		}
	}
	b := NewBuffer(4)
	if err := b.Restore(ckpt.NewDecoder(bufferSnapshot(4, 4, 1, 2, 3, 4)), snapHandlerOf); err != nil {
		t.Fatalf("a full buffer: %v", err)
	}
	if b.Len() != 4 || len(b.nodes) != 4 {
		t.Fatalf("restored Len %d over %d nodes, want 4 and 4", b.Len(), len(b.nodes))
	}
}

// FuzzEngineRestore: whatever bytes it is handed, Engine.Restore
// restores or returns an error; it never panics. The seeds are a real
// snapshot with streams, fetches and a demand waiter in flight, and
// the impossible states above.
func FuzzEngineRestore(f *testing.F) {
	f.Add(engineSnapshot(f, inFlightEngine(f)))
	for _, edit := range []func(*Engine){
		func(e *Engine) { e.core[0].qHead = 1000 },
		func(e *Engine) { e.core[1].qLen = -1 },
		func(e *Engine) { e.core[0].cur.Core = 2 },
	} {
		e := inFlightEngine(f)
		edit(e)
		f.Add(engineSnapshot(f, e))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restoreEngine(data)
	})
}
