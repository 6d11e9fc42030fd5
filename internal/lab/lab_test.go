package lab

import (
	"context"
	"strings"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

func testLab(t *testing.T, opts ...Option) *Lab {
	t.Helper()
	opts = append([]Option{
		WithScale(0.0625),
		WithSeed(1),
		WithWindows(1_000, 2_000),
		WithParallelism(2),
	}, opts...)
	l, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAutoLabelsDistinct(t *testing.T) {
	labels := autoLabels([]sim.PrefSpec{
		{Kind: sim.STMS},
		{Kind: sim.STMS},
		{Kind: sim.STMS, SampleProb: 0.125},
		{Kind: sim.Ideal, MaxDepth: 4},
		{Kind: sim.Ideal, HistoryEntries: 64, IndexEntries: 128},
	})
	seen := map[string]bool{}
	for _, l := range labels {
		if seen[l] {
			t.Fatalf("duplicate label %q in %v", l, labels)
		}
		seen[l] = true
	}
	if labels[2] != "stms@p=0.125" {
		t.Fatalf("sampling label = %q", labels[2])
	}
	if !strings.Contains(labels[3], "d=4") {
		t.Fatalf("depth label = %q", labels[3])
	}
}

func TestCellKeyDistinguishesConfigs(t *testing.T) {
	l := testLab(t)
	spec, err := trace.ByName("web-apache")
	if err != nil {
		t.Fatal(err)
	}
	base := Cell{Spec: spec, Pref: sim.PrefSpec{Kind: sim.STMS}, Config: l.base}
	variants := []func(*Cell){
		func(c *Cell) { c.Mode = Functional },
		func(c *Cell) { c.Config.Seed++ },
		func(c *Cell) { c.Config.Scale = 0.125 },
		func(c *Cell) { c.Config.MeasureRecords++ },
		func(c *Cell) { c.Pref.SampleProb = 0.5 },
		func(c *Cell) { c.Pref.Kind = sim.Ideal },
		func(c *Cell) { c.Spec.DirtyFrac += 0.01 },
	}
	k0 := cellKey(&base)
	for i, mutate := range variants {
		c := base
		mutate(&c)
		if cellKey(&c) == k0 {
			t.Errorf("variant %d not distinguished by cellKey", i)
		}
	}
}

func TestPlanSpecsCustomWorkload(t *testing.T) {
	l := testLab(t)
	// Sized so the scaled per-core iteration stream (96k × 0.0625 = 6k
	// blocks) overflows the scaled shared L2 and actually misses; windows
	// long enough to record one full iteration and replay the next.
	custom := trace.Spec{
		Name: "custom-iter", Class: trace.Sci,
		IterStream: true, IterLen: 96_000,
		ReplayMin: 1.0,
		GapInstrs: 200, GapWork: 220, MemInstrs: 10, MemWork: 5,
		BurstMean: 2, BurstMax: 4, HotBlocks: 8,
	}
	p := l.PlanSpecs([]trace.Spec{custom}, []sim.PrefSpec{{Kind: sim.STMS}},
		ForEachCell(func(c *Cell) {
			c.Config.WarmRecords = 12_000
			c.Config.MeasureRecords = 12_000
		}))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	m, err := l.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Get("custom-iter", "stms")
	if cell == nil || cell.Res == nil {
		t.Fatal("custom workload cell missing")
	}
	if cell.Res.Coverage() <= 0 {
		t.Fatal("iteration workload should be highly coverable")
	}

	// Invalid specs are plan errors.
	if l.PlanSpecs([]trace.Spec{{Name: "broken"}}, []sim.PrefSpec{{Kind: sim.None}}).Err() == nil {
		t.Fatal("invalid spec accepted")
	}
	if l.PlanSpecs(nil, []sim.PrefSpec{{Kind: sim.None}}).Err() == nil {
		t.Fatal("empty plan accepted")
	}
}

func TestCellFailureIsContained(t *testing.T) {
	var failed int
	l := testLab(t, WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellFailed {
			failed++
		}
	}))
	// Break exactly one cell's config; its sibling must still run.
	p := l.Plan([]string{"web-apache", "web-zeus"}, []sim.PrefSpec{{Kind: sim.None}},
		ForEachCell(func(c *Cell) {
			if c.Workload == "web-zeus" {
				c.Config.MeasureRecords = 0 // invalid: empty window
			}
		}))
	m, err := l.Run(context.Background(), p)
	if err == nil {
		t.Fatal("Run hid the failed cell")
	}
	if m == nil {
		t.Fatal("Run withheld the partial matrix")
	}
	if m.Err() == nil {
		t.Fatal("matrix hides the failed cell")
	}
	if failed != 1 {
		t.Fatalf("failed events = %d, want 1", failed)
	}
	if good := m.Get("web-apache", "baseline"); good == nil || good.Res == nil {
		t.Fatal("healthy sibling cell did not run")
	}
	if bad := m.Get("web-zeus", "baseline"); bad.Res != nil || bad.Err == nil {
		t.Fatal("failed cell not recorded as failed")
	}
	if m.Complete() {
		t.Fatal("matrix with failed cell reports complete")
	}
}

func TestDuplicateCellsSimulateOnce(t *testing.T) {
	var started int
	l := testLab(t, WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellStarted {
			started++
		}
	}))
	// Two identical ideal columns plus a distinct baseline: the
	// duplicates must collapse onto one simulation but both report.
	m, err := l.Run(context.Background(), l.Plan([]string{"web-apache"},
		[]sim.PrefSpec{{Kind: sim.Ideal}, {Kind: sim.None}, {Kind: sim.Ideal}}))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Fatalf("started %d simulations, want 2 (duplicate not collapsed)", started)
	}
	if !m.Complete() {
		t.Fatal("duplicate cell missing its shared result")
	}
	if m.At(0, 0).Res != m.At(0, 2).Res {
		t.Fatal("duplicate cells do not share one result")
	}
}

func TestMatrixAccessors(t *testing.T) {
	l := testLab(t)
	m, err := l.Run(context.Background(),
		l.Plan([]string{"sci-em3d"}, []sim.PrefSpec{{Kind: sim.None}, {Kind: sim.Ideal}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Get("sci-em3d", "ideal") == nil {
		t.Fatal("Get by label failed")
	}
	if m.Get("nope", "ideal") != nil || m.Get("sci-em3d", "nope") != nil {
		t.Fatal("Get invented a cell")
	}
	if got := len(m.Row(0)); got != 2 {
		t.Fatalf("row length = %d", got)
	}
	if m.Row(5) != nil || m.At(-1, 0) != nil {
		t.Fatal("out-of-range access not nil")
	}
	if _, err := m.Speedups("nope"); err == nil {
		t.Fatal("Speedups accepted unknown baseline")
	}
	spd, err := m.Speedups("baseline")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := spd["ideal"]["sci-em3d"]; !ok {
		t.Fatalf("speedup series missing: %+v", spd)
	}
}

// TestTimedCellsDecodeEveryRecord pins the frame source as the path
// every timed cell actually takes: each cell decodes frames, and the
// records handed to its cores are exactly the warm-up plus measured
// windows on every core.
func TestTimedCellsDecodeEveryRecord(t *testing.T) {
	l := testLab(t)
	m, err := l.Run(context.Background(), l.Plan(
		[]string{"web-apache", "sci-em3d"},
		[]sim.PrefSpec{{Kind: sim.None}, {Kind: sim.Ideal}, {Kind: sim.STMS, SampleProb: 0.125}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.Cells {
		cfg := c.Cell.Config
		want := (cfg.WarmRecords + cfg.MeasureRecords) * uint64(cfg.Cores)
		if f := c.Res.Frames; f.Frames == 0 || f.Records != want {
			t.Errorf("%s/%s: %d frames carrying %d records, want > 0 frames carrying %d",
				c.Cell.Workload, c.Cell.Label, f.Frames, f.Records, want)
		}
	}
}

func TestEventStreamOrdering(t *testing.T) {
	type rec struct {
		kind EventKind
		done int
	}
	var events []rec
	l := testLab(t, WithProgress(func(ev ResultEvent) {
		events = append(events, rec{ev.Kind, ev.Done})
	}))
	m, err := l.Run(context.Background(),
		l.Plan([]string{"web-apache", "oltp-db2"}, []sim.PrefSpec{{Kind: sim.None}}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("incomplete matrix")
	}
	var starts, finishes, lastDone int
	for _, ev := range events {
		switch ev.kind {
		case CellStarted:
			starts++
		case CellFinished:
			finishes++
			if ev.done <= lastDone {
				t.Fatalf("Done counter not monotonic: %+v", events)
			}
			lastDone = ev.done
		}
	}
	if starts != 2 || finishes != 2 {
		t.Fatalf("events = %d starts, %d finishes, want 2/2", starts, finishes)
	}
	if lastDone != 2 {
		t.Fatalf("final Done = %d, want 2", lastDone)
	}
}
