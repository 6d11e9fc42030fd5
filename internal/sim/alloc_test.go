package sim

import (
	"context"
	"runtime"
	"testing"

	"stms/internal/trace"
)

// TestTimedCellAllocationBudget bounds the bytes a timed cell allocates
// per record at the benchmark's Figure 8 shape (scale 0.125, 80k+120k
// records per core). Meta-data grows by pages, never by doubling
// (DESIGN.md §5): the cells measured 15.0 (Ideal) and 13.1 (STMS)
// B/record when histories and the unbounded index became paged, against
// 44.3 and 26.1 when they were slices grown by append.
func TestTimedCellAllocationBudget(t *testing.T) {
	spec, err := trace.ByName("oltp-db2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.125
	cfg.WarmRecords = 80_000
	cfg.MeasureRecords = 120_000
	records := float64(uint64(cfg.Cores) * (cfg.WarmRecords + cfg.MeasureRecords))
	for _, c := range []struct {
		kind   Kind
		budget float64 // bytes per record
	}{{Ideal, 22}, {STMS, 19}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := run1(context.Background(), cfg, FromSpec(spec), PrefSpec{Kind: c.kind}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.TotalAlloc-before.TotalAlloc) / records; got > c.budget {
			t.Errorf("%v cell allocated %.1f B/record, budget %.0f", c.kind, got, c.budget)
		} else {
			t.Logf("%v cell: %.1f B/record (budget %.0f)", c.kind, got, c.budget)
		}
	}
}
