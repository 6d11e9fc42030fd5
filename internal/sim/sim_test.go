package sim

import (
	"context"
	"reflect"
	"testing"

	"stms/internal/core"
	"stms/internal/trace"
)

// testConfig returns a small, fast configuration shared by the
// integration tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.0625
	cfg.WarmRecords = 30_000
	cfg.MeasureRecords = 40_000
	return cfg
}

// run1 runs one prefetcher variant over in.
func run1(ctx context.Context, cfg Config, in Input, ps PrefSpec, opts ...RunOption) (Results, error) {
	rs, err := Run(ctx, cfg, in, []PrefSpec{ps}, opts...)
	if err != nil {
		return Results{}, err
	}
	return rs[0], nil
}

// mustRun is run1 that fails the test on error.
func mustRun(t testing.TB, cfg Config, in Input, ps PrefSpec, opts ...RunOption) Results {
	t.Helper()
	r, err := run1(context.Background(), cfg, in, ps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// resume continues the exact run a sealed checkpoint describes; tape
// is needed only by tape-backed checkpoints.
func resume(ctx context.Context, data []byte, tape *trace.Tape, opts ...RunOption) (Results, error) {
	d, err := Peek(data)
	if err != nil {
		return Results{}, err
	}
	in, err := d.Input(tape)
	if err != nil {
		return Results{}, err
	}
	mode := Timed
	if d.Mode == Functional.String() {
		mode = Functional
	}
	return run1(ctx, d.Cfg, in, d.PS, append(opts, WithMode(mode), WithResume(data))...)
}

// resumeSampled continues the sampled run a sealed container describes.
func resumeSampled(ctx context.Context, data []byte, tape *trace.Tape, opts ...RunOption) (SampledResults, error) {
	d, err := Peek(data)
	if err != nil {
		return SampledResults{}, err
	}
	in, err := d.Input(tape)
	if err != nil {
		return SampledResults{}, err
	}
	return Sample(ctx, d.Cfg, in, d.PS, d.Sampling, append(opts, WithResume(data))...)
}

func spec(t *testing.T, name string) trace.Spec {
	t.Helper()
	s, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFunctionalBaselineConservation(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, FromSpec(spec(t, "web-apache")), PrefSpec{Kind: None}, WithMode(Functional))
	if r.Records == 0 {
		t.Fatal("no records measured")
	}
	if r.CoveredFull+r.CoveredPartial != 0 {
		t.Fatal("baseline cannot cover misses")
	}
	if r.L1Hits+r.L2Hits+r.Uncovered != r.Records {
		t.Fatalf("reference conservation violated: %d+%d+%d != %d",
			r.L1Hits, r.L2Hits, r.Uncovered, r.Records)
	}
}

func TestFunctionalCoverageConservation(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, FromSpec(spec(t, "web-apache")), PrefSpec{Kind: Ideal}, WithMode(Functional))
	total := r.L1Hits + r.L2Hits + r.Uncovered + r.CoveredFull + r.CoveredPartial
	if total != r.Records {
		t.Fatalf("conservation: %d != %d", total, r.Records)
	}
	if r.Coverage() <= 0.2 {
		t.Fatalf("ideal coverage %.3f too low for web-apache", r.Coverage())
	}
}

// TestBaselineMissesInvariant: covered + uncovered under a prefetcher must
// equal the baseline's miss count exactly (prefetch buffers don't perturb
// cache contents).
func TestBaselineMissesInvariant(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "oltp-db2")
	base := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: None}, WithMode(Functional))
	ideal := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	if base.Uncovered != ideal.BaselineMisses() {
		t.Fatalf("baseline misses %d != covered+uncovered %d",
			base.Uncovered, ideal.BaselineMisses())
	}
}

func TestFunctionalDeterminism(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "web-zeus")
	a := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	b := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	if a.CoveredFull != b.CoveredFull || a.Uncovered != b.Uncovered {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTimedDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 10_000
	cfg.MeasureRecords = 15_000
	s := spec(t, "oltp-oracle")
	a := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS})
	b := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS})
	if a.ElapsedCycles != b.ElapsedCycles || a.CoveredFull != b.CoveredFull ||
		a.Traffic != b.Traffic {
		t.Fatal("timed run not deterministic")
	}
}

func TestTimedBaselineSane(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, FromSpec(spec(t, "web-apache")), PrefSpec{Kind: None})
	if r.IPC <= 0 || r.IPC > 16 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if r.MLP < 1 || r.MLP > 8 {
		t.Fatalf("MLP = %v", r.MLP)
	}
	if r.ElapsedCycles == 0 || r.Instrs == 0 {
		t.Fatal("empty measurement")
	}
	if r.Traffic.TotalAccesses() == 0 {
		t.Fatal("no DRAM traffic")
	}
}

func TestIdealBeatsBaseline(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "sci-em3d")
	base := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: None})
	ideal := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal})
	if ideal.SpeedupOver(&base) < 0.2 {
		t.Fatalf("em3d ideal speedup %.3f too small", ideal.SpeedupOver(&base))
	}
	if ideal.Coverage() < 0.8 {
		t.Fatalf("em3d ideal coverage %.3f", ideal.Coverage())
	}
}

func TestSTMSTracksIdeal(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "web-zeus")
	ideal := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal})
	stms := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS})
	ratio := stms.Coverage() / ideal.Coverage()
	if ratio < 0.7 || ratio > 1.1 {
		t.Fatalf("STMS/ideal coverage ratio %.3f out of band", ratio)
	}
}

func TestSTMSSamplingReducesUpdateTraffic(t *testing.T) {
	cfg := testConfig()
	s := spec(t, "web-apache")
	full := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS, SampleProb: 1.0})
	smp := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS, SampleProb: 0.125})
	fullUpd := full.OverheadTraffic().Update
	smpUpd := smp.OverheadTraffic().Update
	if fullUpd <= smpUpd {
		t.Fatalf("sampling did not reduce update traffic: %.3f vs %.3f", fullUpd, smpUpd)
	}
	if fullUpd/smpUpd < 3 {
		t.Fatalf("update reduction only %.2fx", fullUpd/smpUpd)
	}
	// Coverage loss from sampling must be modest (§5.5: <= ~6%).
	if loss := full.Coverage() - smp.Coverage(); loss > 0.12 {
		t.Fatalf("sampling coverage loss %.3f too large", loss)
	}
}

func TestComparatorsRun(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 10_000
	cfg.MeasureRecords = 15_000
	s := spec(t, "oltp-db2")
	for _, kind := range []Kind{TSE, EBCP, ULMT, Markov} {
		r := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: kind})
		if r.Records == 0 {
			t.Fatalf("%v: no records", kind)
		}
		if kind == TSE && r.Coverage() == 0 {
			t.Errorf("TSE covered nothing")
		}
	}
}

func TestSingleTableFragmentationLosesCoverage(t *testing.T) {
	// The split-table design must out-cover depth-limited single tables
	// on a long-stream workload (§4.5, Fig. 6 right).
	cfg := testConfig()
	s := spec(t, "sci-em3d")
	unbounded := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	depth4 := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal, MaxDepth: 4}, WithMode(Functional))
	if depth4.Coverage() >= unbounded.Coverage() {
		t.Fatalf("depth cap did not lose coverage: %.3f vs %.3f",
			depth4.Coverage(), unbounded.Coverage())
	}
}

func TestHistoryCapLimitsCoverage(t *testing.T) {
	// A tiny history buffer must hurt coverage (Fig. 5 left).
	cfg := testConfig()
	s := spec(t, "web-apache")
	big := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	tiny := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal, HistoryEntries: 2048}, WithMode(Functional))
	if tiny.Coverage() >= big.Coverage()*0.8 {
		t.Fatalf("tiny history coverage %.3f vs unbounded %.3f",
			tiny.Coverage(), big.Coverage())
	}
}

func TestIndexCapLimitsCoverage(t *testing.T) {
	// A tiny index must hurt coverage (Fig. 1 left).
	cfg := testConfig()
	s := spec(t, "web-zeus")
	big := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
	tiny := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal, IndexEntries: 1024}, WithMode(Functional))
	if tiny.Coverage() >= big.Coverage()*0.8 {
		t.Fatalf("tiny index coverage %.3f vs unbounded %.3f",
			tiny.Coverage(), big.Coverage())
	}
}

func TestDSSLowCoverage(t *testing.T) {
	// DSS visits data once: temporal streaming must stay ineffective
	// (§5.2) while scientific workloads are near-perfect.
	cfg := testConfig()
	dss := mustRun(t, cfg, FromSpec(spec(t, "dss-qry17")), PrefSpec{Kind: Ideal}, WithMode(Functional))
	sci := mustRun(t, cfg, FromSpec(spec(t, "sci-moldyn")), PrefSpec{Kind: Ideal}, WithMode(Functional))
	if dss.Coverage() > 0.35 {
		t.Fatalf("DSS coverage %.3f unexpectedly high", dss.Coverage())
	}
	if sci.Coverage() < 0.7 {
		t.Fatalf("moldyn coverage %.3f unexpectedly low", sci.Coverage())
	}
	if dss.Coverage() >= sci.Coverage() {
		t.Fatal("workload ordering violated")
	}
}

func TestOverheadBreakdownConsistent(t *testing.T) {
	cfg := testConfig()
	r := mustRun(t, cfg, FromSpec(spec(t, "oltp-oracle")), PrefSpec{Kind: STMS})
	ov := r.OverheadTraffic()
	if ov.Record < 0 || ov.Update < 0 || ov.Lookup < 0 || ov.Erroneous < 0 {
		t.Fatalf("negative overhead: %+v", ov)
	}
	if ov.Total() <= 0 {
		t.Fatal("no overhead measured for STMS")
	}
	lk, up, er := r.OverheadPerBaselineRead()
	if lk <= 0 || up <= 0 || er < 0 {
		t.Fatalf("per-read overhead: %v %v %v", lk, up, er)
	}
}

func TestVariantNames(t *testing.T) {
	names := map[Kind]string{
		None: "baseline", Ideal: "ideal", STMS: "stms",
		TSE: "tse", EBCP: "ebcp", ULMT: "ulmt", Markov: "markov",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestScaledCaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.125
	if cfg.L2() != 1<<20 {
		t.Fatalf("scaled L2 = %d", cfg.L2())
	}
	if cfg.L1() != 8<<10 {
		t.Fatalf("scaled L1 = %d", cfg.L1())
	}
	cfg.Scale = 1
	if cfg.L2() != 8<<20 {
		t.Fatal("unscaled L2 changed")
	}
}

func TestBlockDirtyDeterministic(t *testing.T) {
	th := dirtyThreshold(0.3)
	for blk := uint64(0); blk < 100; blk++ {
		if blockDirty(blk, th) != blockDirty(blk, th) {
			t.Fatal("dirtiness not a pure function")
		}
	}
	n := 0
	for blk := uint64(0); blk < 10_000; blk++ {
		if blockDirty(blk*7+3, th) {
			n++
		}
	}
	if n < 2500 || n > 3500 {
		t.Fatalf("dirty fraction %d/10000, want ~3000", n)
	}
	if dirtyThreshold(0) != 0 {
		t.Fatal("zero threshold")
	}
}

func TestTimedPartialPlusFullMatchesEngine(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 10_000
	cfg.MeasureRecords = 15_000
	r := mustRun(t, cfg, FromSpec(spec(t, "web-apache")), PrefSpec{Kind: STMS})
	// Engine-window hit counters must equal the sim's covered counters.
	if r.Engine.FullHits != r.CoveredFull || r.Engine.PartialHits != r.CoveredPartial {
		t.Fatalf("engine (%d,%d) vs sim (%d,%d)",
			r.Engine.FullHits, r.Engine.PartialHits, r.CoveredFull, r.CoveredPartial)
	}
}

// TestDriversAgreeOnIdealCoverage: idealized-lookup coverage is
// timing-insensitive by definition (§5.2), so the functional and timed
// drivers must land close to each other.
func TestDriversAgreeOnIdealCoverage(t *testing.T) {
	cfg := testConfig()
	for _, w := range []string{"web-apache", "sci-moldyn"} {
		s := spec(t, w)
		fn := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal}, WithMode(Functional))
		td := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: Ideal})
		diff := fn.Coverage() - td.Coverage()
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05 {
			t.Errorf("%s: functional %.3f vs timed %.3f coverage", w, fn.Coverage(), td.Coverage())
		}
	}
}

// TestAltIndexOrgsEndToEnd: the §5.4 alternatives must run under the full
// timed system and cover less than (or equal to) the bucketized design.
func TestAltIndexOrgsEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 15_000
	cfg.MeasureRecords = 20_000
	s := spec(t, "web-zeus")
	coverage := map[string]float64{}
	for _, org := range []core.IndexOrg{core.OrgBucketLRU, core.OrgDirectMapped, core.OrgOpenAddress} {
		scfg := core.DefaultConfig(cfg.Cores).Scaled(cfg.Scale)
		scfg.Seed = cfg.Seed
		scfg.SampleProb = 0.125
		scfg.Org = org
		r := mustRun(t, cfg, FromSpec(s), PrefSpec{Kind: STMS, STMSCfg: &scfg})
		coverage[org.String()] = r.Coverage()
		if r.Coverage() <= 0 {
			t.Errorf("%v: zero coverage", org)
		}
	}
	if coverage["direct-mapped"] > coverage["bucket-lru"]+0.02 {
		t.Errorf("direct-mapped (%.3f) should not beat bucket-lru (%.3f)",
			coverage["direct-mapped"], coverage["bucket-lru"])
	}
}

// TestRunTimedTraceReplay: replaying a captured trace must drive the full
// timed system and reproduce the synthetic run's coverage ballpark.
// TestTapeReplayMatchesLive is the tape contract at the driver level:
// replaying a materialized tape produces Results bit-identical to live
// generation, for both drivers, across prefetcher variants sharing one
// tape, and with a tape budget larger than the run.
func TestTapeReplayMatchesLive(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 2_000
	cfg.MeasureRecords = 4_000
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	for _, name := range []string{"web-apache", "sci-moldyn"} {
		ws := spec(t, name)
		scaled := ws.Scaled(cfg.Scale)
		tape := trace.NewTape(scaled, cfg.Seed, cfg.Cores, perCore)
		for _, ps := range []PrefSpec{{Kind: None}, {Kind: Ideal}, {Kind: STMS, SampleProb: 0.125}} {
			live := mustRun(t, cfg, FromSpec(ws), ps)
			replay, err := run1(nil, cfg, FromTape(tape), ps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, replay) {
				t.Fatalf("%s/%s: timed tape replay differs from live:\n%+v\n%+v",
					name, ps.Kind, replay, live)
			}
			liveF := mustRun(t, cfg, FromSpec(ws), ps, WithMode(Functional))
			replayF, err := run1(nil, cfg, FromTape(tape), ps, WithMode(Functional))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(liveF, replayF) {
				t.Fatalf("%s/%s: functional tape replay differs from live", name, ps.Kind)
			}
		}
	}

	// An oversized tape replays the same run (cursors are capped).
	ws := spec(t, "oltp-db2")
	big := trace.NewTape(ws.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore+5_000)
	live := mustRun(t, cfg, FromSpec(ws), PrefSpec{Kind: STMS})
	replay, err := run1(nil, cfg, FromTape(big), PrefSpec{Kind: STMS})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replay) {
		t.Fatal("oversized tape replay differs from live")
	}
}

// TestTapeMismatchRejected covers the tapeFits validation.
func TestTapeMismatchRejected(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 500
	cfg.MeasureRecords = 500
	scaled := spec(t, "web-zeus").Scaled(cfg.Scale)
	tape := trace.NewTape(scaled, cfg.Seed, cfg.Cores, 1_000)

	if _, err := run1(nil, cfg, FromTape(nil), PrefSpec{}); err == nil {
		t.Fatal("nil tape accepted")
	}
	bad := cfg
	bad.Seed++
	if _, err := run1(nil, bad, FromTape(tape), PrefSpec{}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	bad = cfg
	bad.Cores++
	if _, err := run1(nil, bad, FromTape(tape), PrefSpec{}); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
	bad = cfg
	bad.MeasureRecords += 1_000
	if _, err := run1(nil, bad, FromTape(tape), PrefSpec{}, WithMode(Functional)); err == nil {
		t.Fatal("undersized tape accepted")
	}
}

func TestRunTimedTraceReplay(t *testing.T) {
	cfg := testConfig()
	cfg.WarmRecords = 10_000
	cfg.MeasureRecords = 12_000
	s := spec(t, "oltp-db2")

	// Capture the same interleaved stream the drivers would consume.
	scaled := s.Scaled(cfg.Scale)
	lib := trace.NewLibrary(scaled, cfg.Seed)
	perCore := make([][]trace.Record, cfg.Cores)
	var rec trace.Record
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		gens[i] = trace.NewGenerator(lib, i, cfg.Seed)
	}
	total := (cfg.WarmRecords + cfg.MeasureRecords) * uint64(cfg.Cores)
	for i := uint64(0); i < total; i++ {
		c := int(i % uint64(cfg.Cores))
		gens[c].Next(&rec)
		perCore[c] = append(perCore[c], rec)
	}
	replay := make([]trace.Generator, cfg.Cores)
	for i := range replay {
		replay[i] = &trace.SliceGenerator{Records: perCore[i]}
	}
	// Scale must not be re-applied to already-scaled captured traces:
	// frame sources deliver the records as-is.
	run := SourceRun{Spec: trace.Spec{Name: "replay", DirtyFrac: scaled.DirtyFrac}, Sources: frameSources(replay)}
	r := mustRun(t, cfg, FromSources(run), PrefSpec{Kind: STMS})
	if r.Records == 0 {
		t.Fatal("replay processed no records")
	}
	if r.Coverage() <= 0.05 {
		t.Fatalf("replay coverage %.3f too low", r.Coverage())
	}
	if r.Workload != "replay" {
		t.Fatalf("workload label %q", r.Workload)
	}
}

func TestTraceWrongSourceCountRejected(t *testing.T) {
	cfg := testConfig()
	run := SourceRun{Spec: trace.Spec{Name: "bad"}, Sources: []trace.FrameSource{trace.Frames(&trace.SliceGenerator{})}}
	if _, err := run1(nil, cfg, FromSources(run), PrefSpec{Kind: None}); err == nil {
		t.Fatal("one frame source accepted for a 4-core run")
	}
}
