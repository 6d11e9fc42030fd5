package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"stms/internal/dram"
	"stms/internal/event"
	"stms/internal/prefetch"
)

// fakeEnv is a synchronous Env counting traffic per class.
type fakeEnv struct {
	now    uint64
	reads  map[dram.Class]int
	writes map[dram.Class]int
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{reads: map[dram.Class]int{}, writes: map[dram.Class]int{}}
}

func (e *fakeEnv) Now() uint64 { return e.now }

func (e *fakeEnv) MetaRead(class dram.Class, done func(uint64)) {
	e.reads[class]++
	if done != nil {
		done(e.now)
	}
}

func (e *fakeEnv) MetaReadH(class dram.Class, h event.Handler, kind uint8, a, b uint64) {
	e.reads[class]++
	h.Handle(e.now, kind, a, b)
}

func (e *fakeEnv) MetaWrite(class dram.Class) { e.writes[class]++ }

func (e *fakeEnv) Fetch(core int, blk uint64, done func(uint64)) {
	if done != nil {
		done(e.now)
	}
}

func (e *fakeEnv) FetchH(core int, blk uint64, h event.Handler, kind uint8, a, b uint64) {
	h.Handle(e.now, kind, a, b)
}

func (e *fakeEnv) OnChip(int, uint64) bool { return false }

func smallConfig() Config {
	return Config{
		Cores:               2,
		HistoryBytesPerCore: 64 * 1024, // 12K entries
		IndexBytes:          64 * 1024, // 1024 buckets
		BucketWays:          12,
		SampleProb:          1.0,
		BucketBufferBytes:   8 << 10,
		Seed:                7,
	}
}

func lookupSTMS(t *testing.T, m *Meta, core int, blk uint64) *prefetch.Cursor {
	t.Helper()
	var got *prefetch.Cursor
	m.Lookup(core, blk, func(c *prefetch.Cursor) { got = c })
	return got
}

func TestRecordThenLookup(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	for _, b := range []uint64{10, 11, 12, 13} {
		m.Record(0, b, false)
	}
	cur := lookupSTMS(t, m, 0, 10)
	if cur == nil {
		t.Fatal("lookup missed a recorded block")
	}
	if cur.Core != 0 || cur.Pos != 1 {
		t.Fatalf("cursor = %+v", cur)
	}
	var addrs []uint64
	m.ReadNext(cur, 12, func(a, p []uint64, mk bool, ma uint64) { addrs = a })
	if len(addrs) != 3 || addrs[0] != 11 || addrs[2] != 13 {
		t.Fatalf("successors = %v", addrs)
	}
}

func TestLookupSeesStateBeforeTriggerRecord(t *testing.T) {
	// The lookup for a miss must resolve against the table as it was
	// before this occurrence is recorded (issue-time capture).
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	m.Record(0, 10, false)
	m.Record(0, 11, false)
	// Second occurrence of 10: lookup then record, as the simulator does.
	cur := lookupSTMS(t, m, 0, 10)
	m.Record(0, 10, false)
	if cur == nil {
		t.Fatal("lookup missed")
	}
	if cur.Pos != 1 {
		t.Fatalf("cursor points at %d, want 1 (after the first occurrence)", cur.Pos)
	}
}

func TestHistoryWriteCombining(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	for i := uint64(0); i < uint64(prefetch.LineEntries*3); i++ {
		m.Record(0, 1000+i, false)
	}
	if got := env.writes[dram.HistoryAppend]; got != 3 {
		t.Fatalf("history writes = %d, want 3 (one per %d records)", got, prefetch.LineEntries)
	}
	// Separate cores combine separately.
	m.Record(1, 5, false)
	if got := env.writes[dram.HistoryAppend]; got != 3 {
		t.Fatal("other core's partial line should not write")
	}
}

func TestProbabilisticUpdateRate(t *testing.T) {
	env := newFakeEnv()
	cfg := smallConfig()
	cfg.SampleProb = 0.125
	m := NewMeta(env, cfg)
	const n = 200_000
	for i := uint64(0); i < n; i++ {
		m.Record(0, i*64, false)
	}
	st := m.Stats()
	got := float64(st.SampledUpdates) / n
	if math.Abs(got-0.125) > 0.01 {
		t.Fatalf("sampled update rate = %v, want ~0.125", got)
	}
	if st.SampledUpdates+st.SkippedUpdates != n {
		t.Fatal("sampled + skipped != records")
	}
	// Index update traffic must track the sampling rate: each sampled
	// update costs at most one read (plus amortized write-backs).
	if env.reads[dram.IndexUpdateRd] > int(st.SampledUpdates) {
		t.Fatalf("update reads %d exceed sampled updates %d",
			env.reads[dram.IndexUpdateRd], st.SampledUpdates)
	}
}

func TestFullSamplingUpdatesEverything(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig()) // SampleProb 1.0
	for i := uint64(0); i < 1000; i++ {
		m.Record(0, i*977, false)
	}
	if m.Stats().SkippedUpdates != 0 {
		t.Fatal("full sampling skipped updates")
	}
}

func TestLookupTrafficOneReadPerMiss(t *testing.T) {
	env := newFakeEnv()
	cfg := smallConfig()
	cfg.BucketBufferBytes = 64 // single-bucket buffer: virtually no hits
	m := NewMeta(env, cfg)
	for i := 0; i < 100; i++ {
		lookupSTMS(t, m, 0, uint64(i*1024+5))
	}
	if got := env.reads[dram.IndexLookup]; got < 95 {
		t.Fatalf("lookup reads = %d, want ~100 (one per lookup)", got)
	}
}

func TestBucketBufferAbsorbsRepeatLookups(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	for i := 0; i < 100; i++ {
		lookupSTMS(t, m, 0, 42) // same bucket every time
	}
	if got := env.reads[dram.IndexLookup]; got != 1 {
		t.Fatalf("lookup reads = %d, want 1 (bucket buffer hit after first)", got)
	}
	if m.Stats().LookupBufHits != 99 {
		t.Fatalf("buffer hits = %d", m.Stats().LookupBufHits)
	}
}

func TestStaleCursorAfterWrap(t *testing.T) {
	env := newFakeEnv()
	cfg := smallConfig()
	cfg.HistoryBytesPerCore = 64 * prefetch.LineEntries / 12 * 2 // tiny: 24 entries... keep simple
	cfg.HistoryBytesPerCore = 2 * 64                             // 24 entries
	m := NewMeta(env, cfg)
	m.Record(0, 42, false)
	cur := lookupSTMS(t, m, 0, 42)
	if cur != nil {
		// 42 is the only record; the cursor points at the head and
		// yields nothing. Either nil or an empty read is acceptable; we
		// exercise the wrap path below.
		var n int
		m.ReadNext(cur, 12, func(a, p []uint64, mk bool, ma uint64) { n = len(a) })
		if n != 0 {
			t.Fatalf("read %d entries past head", n)
		}
	}
	for i := uint64(0); i < 100; i++ {
		m.Record(0, 1000+i, false)
	}
	// 42's entry has been overwritten.
	if cur := lookupSTMS(t, m, 0, 42); cur != nil {
		t.Fatal("wrapped entry still resolvable")
	}
	if m.Stats().IndexStale == 0 {
		t.Fatal("stale pointer not counted")
	}
}

func TestMarkEndWritesOnce(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	for i := uint64(0); i < 10; i++ {
		m.Record(0, i, false)
	}
	m.MarkEnd(0, 5)
	if env.writes[dram.EndMarkWrite] != 1 {
		t.Fatalf("end mark writes = %d", env.writes[dram.EndMarkWrite])
	}
	// Marking an invalid position writes nothing.
	m.MarkEnd(0, 9999)
	if env.writes[dram.EndMarkWrite] != 1 {
		t.Fatal("invalid mark generated traffic")
	}
	// The mark is visible through ReadNext.
	cur := lookupSTMS(t, m, 0, 2)
	var marked bool
	m.ReadNext(cur, 12, func(a, p []uint64, mk bool, ma uint64) { marked = mk })
	if !marked {
		t.Fatal("mark not observed")
	}
}

func TestCrossCoreStreams(t *testing.T) {
	env := newFakeEnv()
	m := NewMeta(env, smallConfig())
	for _, b := range []uint64{7, 8, 9} {
		m.Record(1, b, false)
	}
	cur := lookupSTMS(t, m, 0, 7)
	if cur == nil || cur.Core != 1 {
		t.Fatalf("cross-core cursor = %+v", cur)
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.IndexBuckets() != (16<<20)/64 {
		t.Fatalf("buckets = %d", cfg.IndexBuckets())
	}
	if cfg.HistoryEntriesPerCore() != (8<<20)/64*12 {
		t.Fatalf("entries = %d", cfg.HistoryEntriesPerCore())
	}
	h := cfg.Scaled(0.125)
	if h.IndexBytes != (16<<20)/8 {
		t.Fatalf("scaled index = %d", h.IndexBytes)
	}
	if cfg.Scaled(1).IndexBytes != cfg.IndexBytes {
		t.Fatal("scale 1 must be identity")
	}
}

func TestConfigBadSampleProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := smallConfig()
	cfg.SampleProb = 0
	NewMeta(newFakeEnv(), cfg)
}

func TestSamplingDeterministicBySeed(t *testing.T) {
	run := func() uint64 {
		env := newFakeEnv()
		cfg := smallConfig()
		cfg.SampleProb = 0.125
		m := NewMeta(env, cfg)
		for i := uint64(0); i < 10_000; i++ {
			m.Record(0, i, false)
		}
		return m.Stats().SampledUpdates
	}
	if run() != run() {
		t.Fatal("sampling not deterministic")
	}
}

// TestEndToEndWithEngine wires STMS under the shared stream engine and
// checks that a recurring sequence is prefetched through real meta-data
// paths (index hash + history lines + sampling).
func TestEndToEndWithEngine(t *testing.T) {
	env := newFakeEnv()
	cfg := smallConfig()
	cfg.Cores = 1
	cfg.SampleProb = 1.0
	eng, m := New(env, cfg, prefetch.DefaultEngineConfig(1))

	// First pass: record a 60-block sequence as misses.
	seq := make([]uint64, 60)
	for i := range seq {
		seq[i] = uint64(5000 + i*3)
	}
	for _, b := range seq {
		eng.TriggerMiss(0, b)
		eng.Record(0, b, false)
	}
	// Second pass: first block misses, the rest should be covered.
	eng.TriggerMiss(0, seq[0])
	eng.Record(0, seq[0], false)
	covered := 0
	for _, b := range seq[1:] {
		res := eng.Probe(0, b, nil, 0, 0, 0)
		if res.State == prefetch.ProbeReady {
			covered++
			eng.Record(0, b, true)
		} else {
			eng.TriggerMiss(0, b)
			eng.Record(0, b, false)
		}
	}
	if covered < 50 {
		t.Fatalf("covered %d of 59 on replay", covered)
	}
	if env.reads[dram.HistoryRead] == 0 {
		t.Fatal("no history line reads charged")
	}
	if m.Stats().HistoryWrites == 0 {
		t.Fatal("no packed history writes")
	}
}

// perMiss drives one off-chip miss at a time through a Meta on the
// synchronous fakeEnv: Lookup, its completion, and Record with every
// update applied (the Fig. 5 capacity sweep's p = 1).
type perMiss struct {
	m      *Meta
	stream []uint64
	done   func(*prefetch.Cursor)
	i      int
}

// perMissSizes are the Fig. 5 (right) index sizes of the
// capacity-functional benchmark workload.
var perMissSizes = []struct {
	name  string
	bytes uint64
}{{"64KB", 64 << 10}, {"1MB", 1 << 20}, {"8MB", 8 << 20}}

// newPerMiss builds the driver over an index of indexBytes and warms it
// with one pass over its 64K-miss stream, which wraps the history and
// gives every bucket the stream reaches its overflow chunk: after it,
// the loop allocates nothing.
func newPerMiss(indexBytes uint64) *perMiss {
	cfg := Config{Cores: 1, HistoryBytesPerCore: 64 << 10, IndexBytes: indexBytes,
		BucketWays: 12, SampleProb: 1, BucketBufferBytes: 8 << 10, Seed: 1}
	p := &perMiss{m: NewMeta(newFakeEnv(), cfg), stream: make([]uint64, 1<<16), done: func(*prefetch.Cursor) {}}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range p.stream {
		p.stream[i] = rng.Uint64N(150_000) << 6
	}
	for range p.stream {
		p.step()
	}
	return p
}

// stepHinted is step with a host prefetch hint for the miss d ahead,
// so that miss's index line is on its way while this one runs.
func (p *perMiss) stepHinted(d int) {
	p.m.Hint(p.stream[(p.i+d)&(len(p.stream)-1)])
	p.step()
}

func (p *perMiss) step() {
	blk := p.stream[p.i&(len(p.stream)-1)]
	p.i++
	p.m.Lookup(0, blk, p.done)
	p.m.Record(0, blk, false)
}

// BenchmarkMetaPerMiss times one miss's meta-data work — index lookup,
// bucket-buffer residency, completion, history append and index update —
// at each capacity-functional index size.
func BenchmarkMetaPerMiss(b *testing.B) {
	for _, c := range perMissSizes {
		b.Run(c.name, func(b *testing.B) {
			p := newPerMiss(c.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				p.step()
			}
		})
	}
}

// BenchmarkMetaPerMissHinted is BenchmarkMetaPerMiss with Meta.Hint
// issued for the miss perMissHintAhead ahead before each miss. If host
// cache misses on the index lines are what the per-miss time pays for,
// the gap to the unhinted benchmark grows with the index size (DESIGN.md
// §6).
func BenchmarkMetaPerMissHinted(b *testing.B) {
	for _, c := range perMissSizes {
		b.Run(c.name, func(b *testing.B) {
			p := newPerMiss(c.bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				p.stepHinted(perMissHintAhead)
			}
		})
	}
}

// perMissHintAhead is how many misses ahead BenchmarkMetaPerMissHinted
// hints: far enough for a DRAM round trip to finish under the misses
// between.
const perMissHintAhead = 8

// TestMetaPerMissAllocationFree: in steady state a miss through the
// STMS meta-data engine allocates nothing, hinted or not.
func TestMetaPerMissAllocationFree(t *testing.T) {
	for _, c := range perMissSizes {
		p := newPerMiss(c.bytes)
		if n := testing.AllocsPerRun(1000, p.step); n != 0 {
			t.Errorf("%s: %v allocations per miss, want 0", c.name, n)
		}
		hinted := func() { p.stepHinted(perMissHintAhead) }
		if n := testing.AllocsPerRun(1000, hinted); n != 0 {
			t.Errorf("%s: %v allocations per hinted miss, want 0", c.name, n)
		}
	}
}
