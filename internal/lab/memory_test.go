package lab

import (
	"context"
	"runtime/metrics"
	"testing"

	"stms/internal/core"
	"stms/internal/sim"
)

// itemIndexBytes is the modelled index of TestFinishedItemTablesCollected:
// a 16 MB table of 64-byte bucket heads, allocated when the cell's
// prefetcher is built.
const itemIndexBytes = 16 << 20

// TestFinishedItemTablesCollected runs three one-cell work items whose
// tables are far larger than anything else alive, one after another,
// and reads the live heap the last collection found whenever an item
// starts. Once the first item has finished, that collection must have
// run after it: a heap that still counts a finished item's tables as
// live charges the next item for them, and the GC pacer lets the heap
// grow to twice that before it collects again.
func TestFinishedItemTablesCollected(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.HistoryBytesPerCore = 64 << 10
	cfg.IndexBytes = itemIndexBytes
	cfg.SampleProb = 1
	big := sim.PrefSpec{Kind: sim.STMS, STMSCfg: &cfg}

	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var starts int
	var lives []uint64
	l := testLab(t, WithParallelism(1), WithWindows(2_000, 3_000), WithProgress(func(ev ResultEvent) {
		if ev.Kind != CellStarted {
			return
		}
		if starts++; starts > 1 {
			metrics.Read(live)
			lives = append(lives, live[0].Value.Uint64())
		}
	}))
	m, err := l.Run(context.Background(), l.Plan(groupRows, []sim.PrefSpec{big}, InMode(Functional)))
	if err != nil {
		t.Fatal(err)
	}
	if starts != len(m.Cells) || len(m.Cells) < 3 {
		t.Fatalf("%d cells started of %d, want at least 3 one after another", starts, len(m.Cells))
	}
	for k, b := range lives {
		t.Logf("item %d starts with %.1f MB live", k+2, float64(b)/(1<<20))
		if b >= itemIndexBytes/2 {
			t.Errorf("item %d started with %d live heap bytes, at least half of one finished item's %d-byte index table",
				k+2, b, itemIndexBytes)
		}
	}
}
