package sim

import (
	"context"
	"runtime"
	"testing"

	"stms/internal/core"
	"stms/internal/trace"
)

// retainIndexBytes is the modelled index of the retention tests, and
// retainTableBytes the Go table that models it: 32k buckets of 12 ways,
// each way a key and a pointer, plus a length byte per bucket (6 MB).
const (
	retainIndexBytes = 2 << 20
	retainTableBytes = retainIndexBytes / 64 * (12*16 + 1)
)

// retainPref is STMS with an index big enough that a pinned prefetcher
// dwarfs everything a Results legitimately holds.
func retainPref(seed uint64) PrefSpec {
	cfg := core.DefaultConfig(4)
	cfg.HistoryBytesPerCore = 64 << 10
	cfg.IndexBytes = retainIndexBytes
	cfg.SampleProb = 1
	cfg.Seed = seed
	return PrefSpec{Kind: STMS, STMSCfg: &cfg}
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResultsDoNotPinPrefetcher holds the Results of several STMS runs
// with a large index and checks that the live heap grows by far less
// than the index tables those runs built: a Results owns its data and
// keeps nothing of its simulator reachable. It covers the timed driver,
// lockstep functional groups (one table per variant) and sampled runs
// (one forked prefetcher per window).
func TestResultsDoNotPinPrefetcher(t *testing.T) {
	cfg := scenarioTestConfig(1000, 2000)
	sp := spec(t, "oltp-db2")
	tape := trace.NewTape(sp.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
	ctx := context.Background()

	cases := []struct {
		name   string
		tables int // index tables each run builds
		run    func(seed uint64) (any, error)
	}{
		{"timed", 1, func(seed uint64) (any, error) {
			return run1(ctx, cfg, FromSpec(sp), retainPref(seed))
		}},
		{"functional group of 3", 3, func(seed uint64) (any, error) {
			return Run(ctx, cfg, FromTape(tape), []PrefSpec{retainPref(seed), retainPref(seed + 1), retainPref(seed + 2)}, WithMode(Functional))
		}},
		{"sampled K=4", 4, func(seed uint64) (any, error) {
			return Sample(ctx, cfg, FromTape(tape), retainPref(seed), Sampling{Windows: 4})
		}},
	}
	const runs = 3
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A first run pays any one-time allocations outside the
			// Results (pools, lazily built tables) before the baseline.
			if _, err := c.run(0); err != nil {
				t.Fatal(err)
			}
			held := make([]any, runs)
			before := liveHeap()
			for i := range held {
				r, err := c.run(uint64(i + 1))
				if err != nil {
					t.Fatal(err)
				}
				held[i] = r
			}
			grown := int64(liveHeap()) - int64(before)
			runtime.KeepAlive(held)
			pinned := runs * c.tables * retainTableBytes
			t.Logf("held %d runs: live heap grew %.2f MB (pinned prefetchers would hold %.1f MB of index tables)",
				runs, float64(grown)/(1<<20), float64(pinned)/(1<<20))
			if grown > retainTableBytes/2 {
				t.Fatalf("holding %d runs' Results grew the live heap by %d bytes, more than half of one %d-byte index table: a Results still pins its simulator",
					runs, grown, retainTableBytes)
			}
		})
	}
}
