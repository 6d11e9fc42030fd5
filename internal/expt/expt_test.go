package expt

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

// tinyOptions keeps harness tests fast; shapes at this scale are noisier
// than the default but the structural assertions below still hold.
func tinyOptions() Options {
	return Options{Scale: 0.0625, Seed: 42, Warm: 30_000, Measure: 40_000}
}

func pct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}

func TestTable1(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Table1()
	if len(tb.Rows) < 8 {
		t.Fatalf("table1 rows = %d", len(tb.Rows))
	}
}

func TestTable2MLPBands(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Table2()
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	mlp := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("MLP cell %q", row[1])
		}
		if v < 0.95 || v > 2.5 {
			t.Errorf("%s MLP %v out of plausible band", row[0], v)
		}
		mlp[row[0]] = v
	}
	// Table 2's ordering: moldyn is serialized; em3d is the most parallel.
	if mlp["moldyn"] > 1.1 {
		t.Errorf("moldyn MLP %v, want ~1.0", mlp["moldyn"])
	}
	if mlp["em3d"] < mlp["moldyn"] {
		t.Error("em3d should out-parallel moldyn")
	}
}

func TestFig4Shapes(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig4()
	cov := map[string]float64{}
	spd := map[string]float64{}
	for _, row := range tb.Rows {
		cov[row[0]] = pct(t, row[1])
		spd[row[0]] = pct(t, row[2])
	}
	// The paper's qualitative orderings.
	if !(cov["em3d"] > 80) {
		t.Errorf("em3d coverage %v, want > 80%%", cov["em3d"])
	}
	if !(cov["DSS-DB2"] < 35) {
		t.Errorf("DSS coverage %v, want low", cov["DSS-DB2"])
	}
	if !(spd["em3d"] > spd["Apache"]) {
		t.Errorf("em3d speedup %v should dominate Apache %v", spd["em3d"], spd["Apache"])
	}
	if !(cov["Oracle"] > 30 && spd["Oracle"] < spd["OLTP-DB2"]) {
		t.Errorf("Oracle should be high-coverage/low-speedup: cov %v spd %v (DB2 %v)",
			cov["Oracle"], spd["Oracle"], spd["OLTP-DB2"])
	}
}

func TestFig5HistoryMonotoneRise(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig5History()
	if len(tb.Rows) < 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Column 2 is web-apache: coverage must rise (within tolerance) with
	// history size and saturate well above the smallest point.
	first := pct(t, tb.Rows[0][2])
	last := pct(t, tb.Rows[len(tb.Rows)-1][2])
	if last < first+10 {
		t.Errorf("apache coverage rise %v -> %v too flat", first, last)
	}
	for i := 1; i < len(tb.Rows); i++ {
		prev := pct(t, tb.Rows[i-1][2])
		cur := pct(t, tb.Rows[i][2])
		if cur < prev-5 {
			t.Errorf("apache coverage dropped %v -> %v at row %d", prev, cur, i)
		}
	}
}

func TestFig5IndexSaturates(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig5Index()
	n := len(tb.Rows)
	small := pct(t, tb.Rows[0][2])
	large := pct(t, tb.Rows[n-1][2])
	if large < small {
		t.Errorf("hash-index coverage should not degrade with size: %v -> %v", small, large)
	}
	if large < 20 {
		t.Errorf("apache coverage %v with a big hash index is too low", large)
	}
}

func TestFig6LengthsCDF(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig6Lengths()
	if len(tb.Rows) < 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// CDF rows must be monotone left to right.
	for _, row := range tb.Rows {
		if len(row) < 12 || !strings.HasSuffix(row[1], "%") {
			continue // sci annotation rows
		}
		prev := -1.0
		for _, cell := range row[1 : len(row)-1] {
			v := pct(t, cell)
			if v < prev-1e-9 {
				t.Errorf("%s: CDF not monotone", row[0])
				break
			}
			prev = v
		}
	}
}

func TestFig6DepthLossDecreasing(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig6Depth()
	for _, row := range tb.Rows {
		if row[0] != "em3d" {
			continue
		}
		// Loss at depth 1 must exceed loss at depth 15 for the
		// long-stream workload.
		lossAt1 := pct(t, row[2])
		lossAt15 := pct(t, row[len(row)-1])
		if lossAt1 <= lossAt15 {
			t.Errorf("em3d loss@1 %v <= loss@15 %v", lossAt1, lossAt15)
		}
		if lossAt1 < 10 {
			t.Errorf("em3d loss@1 %v suspiciously small", lossAt1)
		}
	}
}

func TestFig7SamplingCutsUpdateTraffic(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig7()
	// Rows come in pairs: 100% then 12.5% per workload; update column 3.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		full, _ := strconv.ParseFloat(tb.Rows[i][3], 64)
		smp, _ := strconv.ParseFloat(tb.Rows[i+1][3], 64)
		if smp >= full {
			t.Errorf("%s: update overhead %v (12.5%%) !< %v (100%%)",
				tb.Rows[i][0], smp, full)
		}
	}
}

func TestFig8Tables(t *testing.T) {
	o := tinyOptions()
	o.Warm, o.Measure = 20_000, 25_000
	r := NewRunner(o)
	traffic, coverage := r.Fig8()
	if len(traffic.Rows) < 9 || len(coverage.Rows) < 9 {
		t.Fatalf("rows = %d/%d", len(traffic.Rows), len(coverage.Rows))
	}
	// The last rows are summaries.
	summary := traffic.Rows[len(traffic.Rows)-1]
	if !strings.Contains(summary[0], "geomean") {
		t.Errorf("missing geomean row: %v", summary)
	}
}

func TestFig9Ratios(t *testing.T) {
	r := NewRunner(tinyOptions())
	tb := r.Fig9()
	if len(tb.Rows) != 9 { // 8 workloads + mean
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	mean := tb.Rows[8]
	covRatio := pct(t, mean[7])
	if covRatio < 70 || covRatio > 110 {
		t.Errorf("mean STMS/ideal coverage ratio %v%%, paper reports ~90%%", covRatio)
	}
}

func TestFig1RightOrdering(t *testing.T) {
	o := tinyOptions()
	o.Warm, o.Measure = 20_000, 25_000
	r := NewRunner(o)
	tb := r.Fig1Right()
	total := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("total cell %q", row[4])
		}
		total[row[0]] = v
	}
	// STMS must be the cheapest design by a clear margin (the paper's
	// whole point).
	for _, prior := range []string{"ebcp", "ulmt", "tse"} {
		if total["stms"] >= total[prior] {
			t.Errorf("STMS overhead %v not below %s %v", total["stms"], prior, total[prior])
		}
	}
}

func TestByIDAndAll(t *testing.T) {
	o := tinyOptions()
	o.Warm, o.Measure = 8_000, 10_000
	r := NewRunner(o)
	var buf bytes.Buffer
	for _, id := range []string{"table1", "fig4"} {
		buf.Reset()
		if err := r.ByID(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
	if err := r.ByID("nope", &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
	if len(IDs()) != 15 {
		t.Fatalf("IDs() = %v", IDs())
	}
}

// TestPhaseSensitivity exercises the scenario-suite experiment: every
// built-in scenario appears, multi-phase scenarios report one row per
// phase, and the table renders.
func TestPhaseSensitivity(t *testing.T) {
	o := tinyOptions()
	r := NewRunner(o)
	table := r.PhaseSensitivity()
	out := table.String()
	if out == "" {
		t.Fatal("empty table")
	}
	for _, name := range trace.ScenarioNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("phase table is missing scenario %s:\n%s", name, out)
		}
	}
	scn, err := trace.ScenarioByName("phase-flip")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range scn.Phases {
		if !strings.Contains(out, p.Name) {
			t.Fatalf("phase table is missing phase-flip phase %q:\n%s", p.Name, out)
		}
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(tinyOptions())
	a := r.Timed("sci-ocean", timedSpecOf())
	b := r.Timed("sci-ocean", timedSpecOf())
	if a.ElapsedCycles != b.ElapsedCycles {
		t.Fatal("memoized run differs")
	}
	if n := r.Lab().MemoSize(); n != 1 {
		t.Fatalf("memoized cells = %d, want 1", n)
	}
}

func TestShortNames(t *testing.T) {
	if shortName("web-apache") != "Apache" || shortName("unknown-x") != "unknown-x" {
		t.Fatal("shortName mapping broken")
	}
}

func timedSpecOf() sim.PrefSpec { return sim.PrefSpec{Kind: sim.None} }
