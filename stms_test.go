// Tests for the public Lab session API: option validation, plan
// cross-product construction, mid-run context cancellation, determinism
// across parallelism, and the acceptance matrix — a single Lab.Run over
// the paper's workloads × {baseline, ideal, stms} whose per-cell results
// are identical to sequential RunTimed calls at the same seed.
package stms_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"stms"
)

// mustRun runs one prefetcher variant over in, failing tb on error.
func mustRun(tb testing.TB, cfg stms.Config, in stms.Input, ps stms.PrefSpec) stms.Results {
	tb.Helper()
	r, err := stms.Run(context.Background(), cfg, in, ps)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// tinyLab returns fast-session options: same shapes as the paper runs,
// much smaller windows.
func tinyLab(extra ...stms.Option) []stms.Option {
	return append([]stms.Option{
		stms.WithScale(0.0625),
		stms.WithSeed(42),
		stms.WithWindows(2_000, 4_000),
	}, extra...)
}

func TestNewOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []stms.Option
	}{
		{"zero scale", []stms.Option{stms.WithScale(0)}},
		{"negative scale", []stms.Option{stms.WithScale(-0.5)}},
		{"superunit scale", []stms.Option{stms.WithScale(1.5)}},
		{"zero parallelism", []stms.Option{stms.WithParallelism(0)}},
		{"empty window", []stms.Option{stms.WithWindows(1000, 0)}},
		{"invalid base config", []stms.Option{stms.WithBaseConfig(stms.Config{})}},
	}
	for _, tc := range cases {
		if _, err := stms.New(tc.opts...); err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
		}
	}

	lab, err := stms.New(
		stms.WithScale(0.25),
		stms.WithSeed(7),
		stms.WithWindows(100, 200),
		stms.WithParallelism(3),
	)
	if err != nil {
		t.Fatalf("New with valid options: %v", err)
	}
	cfg := lab.BaseConfig()
	if cfg.Scale != 0.25 || cfg.Seed != 7 || cfg.WarmRecords != 100 || cfg.MeasureRecords != 200 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if lab.Parallelism() != 3 {
		t.Fatalf("parallelism = %d, want 3", lab.Parallelism())
	}
}

func TestPlanCrossProduct(t *testing.T) {
	lab, err := stms.New(tinyLab()...)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"web-apache", "oltp-db2"}
	prefs := []stms.PrefSpec{
		{Kind: stms.None},
		{Kind: stms.STMS, SampleProb: 0.125},
		{Kind: stms.STMS, SampleProb: 0.5},
	}
	plan := lab.Plan(workloads, prefs)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	rows, cols := plan.Size()
	if rows != 2 || cols != 3 {
		t.Fatalf("plan size = %d×%d, want 2×3", rows, cols)
	}
	if len(plan.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(plan.Cells))
	}
	// Auto-labels must be distinct even for same-kind columns.
	seen := map[string]bool{}
	for _, l := range plan.Labels {
		if seen[l] {
			t.Fatalf("duplicate column label %q in %v", l, plan.Labels)
		}
		seen[l] = true
	}
	// Every cell inherits the session seed (matched-pair default).
	for _, c := range plan.Cells {
		if c.Config.Seed != 42 {
			t.Fatalf("cell %s/%s seed = %d, want 42", c.Workload, c.Label, c.Config.Seed)
		}
	}

	// Unknown workloads are plan errors, surfaced by Run.
	bad := lab.Plan([]string{"no-such-workload"}, prefs)
	if bad.Err() == nil {
		t.Fatal("plan accepted unknown workload")
	}
	if _, err := lab.Run(context.Background(), bad); err == nil {
		t.Fatal("Run accepted broken plan")
	}

	// Label count must match variant count.
	if lab.Plan(workloads, prefs, stms.WithLabels("just-one")).Err() == nil {
		t.Fatal("plan accepted mismatched labels")
	}

	// Per-cell override hook and per-row seeding are applied.
	custom := lab.Plan(workloads, prefs,
		stms.WithRowSeed(func(w string, row int) uint64 { return 100 + uint64(row) }),
		stms.ForEachCell(func(c *stms.Cell) { c.Config.MeasureRecords = 999 }),
	)
	if err := custom.Err(); err != nil {
		t.Fatal(err)
	}
	for _, c := range custom.Cells {
		if want := 100 + uint64(c.Row); c.Config.Seed != want {
			t.Fatalf("row seed = %d, want %d", c.Config.Seed, want)
		}
		if c.Config.MeasureRecords != 999 {
			t.Fatalf("ForEachCell override lost: %+v", c.Config.MeasureRecords)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	// Big windows so the matrix would take far longer than the test
	// allows; cancellation must stop the workers promptly.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	lab, err := stms.New(
		stms.WithScale(0.125),
		stms.WithWindows(400_000, 600_000),
		stms.WithParallelism(2),
		stms.WithProgress(func(ev stms.ResultEvent) {
			if ev.Kind == stms.CellStarted {
				select {
				case started <- struct{}{}:
				default:
				}
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	plan := lab.Plan(stms.FigureEight(), []stms.PrefSpec{
		{Kind: stms.None}, {Kind: stms.Ideal}, {Kind: stms.STMS},
	})
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := lab.Run(ctx, plan)
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("no cell ever started")
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if waited := time.Since(t0); waited > 10*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
}

// TestMatrixMatchesSequential is the acceptance matrix — and the
// golden live-vs-tape equality check: one Lab.Run over the paper's
// figure-eight workloads × {baseline, ideal, stms} generates every
// cell's trace live, and every cell's Results must be bit-identical to
// a sequential run replaying the workload's columnar tape at the same
// seed.
func TestMatrixMatchesSequential(t *testing.T) {
	lab, err := stms.New(tinyLab(stms.WithParallelism(4))...)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []stms.PrefSpec{{Kind: stms.None}, {Kind: stms.Ideal}, {Kind: stms.STMS}}
	plan := lab.Plan(stms.FigureEight(), prefs)
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("matrix has empty cells")
	}

	cfg := lab.BaseConfig()
	for row, w := range m.Workloads {
		spec, err := stms.Workload(w)
		if err != nil {
			t.Fatal(err)
		}
		tape := stms.NewTape(spec.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
		for col := range m.Labels {
			got := m.At(row, col).Res
			want := mustRun(t, cfg, stms.FromTape(tape), prefs[col])
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("cell %s/%s differs from its sequential tape replay", w, m.Labels[col])
			}
		}
	}

	// The matrix carries the figure's aggregations directly.
	spd, err := m.SpeedupTable("baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(spd.Rows) != len(m.Workloads)+1 { // + geomean row
		t.Fatalf("speedup table rows = %d", len(spd.Rows))
	}
	if cov := m.CoverageTable(); len(cov.Rows) != len(m.Workloads) {
		t.Fatalf("coverage table rows = %d", len(cov.Rows))
	}
}

func TestDeterminismAcrossParallelism(t *testing.T) {
	run := func(par int) *stms.Matrix {
		lab, err := stms.New(tinyLab(stms.WithParallelism(par))...)
		if err != nil {
			t.Fatal(err)
		}
		plan := lab.Plan([]string{"web-apache", "oltp-db2", "sci-em3d"}, []stms.PrefSpec{
			{Kind: stms.None}, {Kind: stms.STMS, SampleProb: 0.125},
		})
		m, err := lab.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Workloads, b.Workloads) || !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatal("matrix shapes differ across parallelism")
	}
	for i := range a.Cells {
		ra, rb := a.Cells[i].Res, b.Cells[i].Res
		if ra == nil || rb == nil {
			t.Fatalf("cell %d missing results", i)
		}
		if !reflect.DeepEqual(*ra, *rb) {
			t.Fatalf("cell %s/%s differs between parallelism 1 and 8",
				a.Cells[i].Cell.Workload, a.Cells[i].Cell.Label)
		}
	}
}

func TestMemoizationAcrossPlans(t *testing.T) {
	calls := 0
	lab, err := stms.New(tinyLab(stms.WithProgress(func(ev stms.ResultEvent) {
		if ev.Kind == stms.CellStarted {
			calls++
		}
	}))...)
	if err != nil {
		t.Fatal(err)
	}
	plan := lab.Plan([]string{"sci-ocean"}, []stms.PrefSpec{{Kind: stms.None}})
	if _, err := lab.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("first run started %d cells, want 1", calls)
	}
	m, err := lab.Run(context.Background(), lab.Plan([]string{"sci-ocean"}, []stms.PrefSpec{{Kind: stms.None}}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("memoized rerun re-simulated (%d cells started)", calls)
	}
	if !m.Complete() {
		t.Fatal("memoized matrix incomplete")
	}
	if lab.MemoSize() != 1 {
		t.Fatalf("memo size = %d, want 1", lab.MemoSize())
	}
}

func TestFunctionalModeAndExport(t *testing.T) {
	lab, err := stms.New(tinyLab()...)
	if err != nil {
		t.Fatal(err)
	}
	plan := lab.Plan([]string{"web-apache"}, []stms.PrefSpec{{Kind: stms.Ideal}},
		stms.InMode(stms.Functional))
	m, err := lab.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	res := m.At(0, 0).Res
	if res == nil {
		t.Fatal("no result")
	}
	if res.IPC != 0 || res.ElapsedCycles != 0 {
		t.Fatal("functional mode produced timing numbers")
	}
	if res.Coverage() <= 0 {
		t.Fatal("functional mode produced no coverage")
	}

	var jsonBuf, csvBuf testBuffer
	if err := m.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if len(jsonBuf.b) == 0 || len(csvBuf.b) == 0 {
		t.Fatal("empty export")
	}
}

// TestScenarioSuiteMatrix is the scenario acceptance check: the whole
// built-in suite runs through one Lab matrix, every multi-phase row
// carries phase windows that sum to its totals, and each live-generated
// cell is bit-identical to a sequential run replaying the scenario's
// tape at the same seed — the live-equals-tape-replay golden, covering
// multi-phase, mixed-core, drift and reseed scenarios.
func TestScenarioSuiteMatrix(t *testing.T) {
	lab, err := stms.New(tinyLab(stms.WithParallelism(4))...)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []stms.PrefSpec{{Kind: stms.Ideal}, {Kind: stms.STMS, SampleProb: 0.125}}
	m, err := lab.Run(context.Background(), lab.Plan(stms.ScenarioNames(), prefs))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() {
		t.Fatal("matrix has empty cells")
	}

	cfg := lab.BaseConfig()
	multiPhase := 0
	for row, name := range m.Workloads {
		scn, err := stms.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tape := stms.NewScenarioTape(scn.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords)
		for col := range m.Labels {
			got := m.At(row, col).Res
			want := mustRun(t, cfg, stms.FromTape(tape), prefs[col])
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("cell %s/%s differs from its sequential tape replay", name, m.Labels[col])
			}
		}
		res := m.At(row, 0).Res
		if len(scn.Phases) > 1 {
			multiPhase++
			if len(res.Phases) != len(scn.Phases) {
				t.Fatalf("%s: %d phase windows for %d phases", name, len(res.Phases), len(scn.Phases))
			}
			var recs uint64
			for _, w := range res.Phases {
				recs += w.Records
			}
			total := cfg.WarmRecords + cfg.MeasureRecords
			if recs != total*uint64(cfg.Cores) {
				t.Fatalf("%s: phase windows hold %d records, run processed %d", name, recs, total*uint64(cfg.Cores))
			}
		}
	}
	if multiPhase == 0 {
		t.Fatal("suite has no multi-phase scenarios")
	}
}

type testBuffer struct{ b []byte }

func (t *testBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	return len(p), nil
}
