package lab

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stms/internal/sim"
	"stms/internal/trace"
)

func scenarioLab(t *testing.T, opts ...Option) *Lab {
	t.Helper()
	l, err := New(append([]Option{
		WithScale(0.0625), WithSeed(42), WithWindows(1500, 3000),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestMatrixMatchesTapeReplay: a session generates every cell's trace
// live, and each cell — timed alone, or functional in a lockstep group —
// is bit-identical to the same run replaying a materialized tape, for
// stationary and scenario rows alike.
func TestMatrixMatchesTapeReplay(t *testing.T) {
	l := scenarioLab(t)
	rows := []string{"oltp-db2", "phase-flip", "migratory-handoff"}
	prefs := []sim.PrefSpec{{Kind: sim.None}, {Kind: sim.Ideal}, {Kind: sim.STMS, SampleProb: 0.125}}
	cfg := l.BaseConfig()
	perCore := cfg.WarmRecords + cfg.MeasureRecords
	for _, mode := range []Mode{Timed, Functional} {
		m, err := l.Run(context.Background(), l.Plan(rows, prefs, InMode(mode)))
		if err != nil {
			t.Fatal(err)
		}
		if !m.Complete() {
			t.Fatalf("%v matrix has empty cells", mode)
		}
		for row, name := range m.Workloads {
			c := m.At(row, 0).Cell
			var tape *trace.Tape
			if c.Scenario != nil {
				tape = trace.NewScenarioTape(c.Scenario.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
			} else {
				tape = trace.NewTape(c.Spec.Scaled(cfg.Scale), cfg.Seed, cfg.Cores, perCore)
			}
			// The tape in memory, and the same tape after a
			// WriteTape→ReadTape file round trip.
			for i, tape := range []*trace.Tape{tape, tapeFileRoundTrip(t, tape)} {
				for col := range m.Labels {
					got := m.At(row, col).Res
					want, err := sim.Run(context.Background(), cfg, sim.FromTape(tape), []sim.PrefSpec{prefs[col]}, sim.WithMode(mode))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(*got, want[0]) {
						t.Fatalf("%v cell %s/%s differs from its tape replay (tape %d)", mode, name, m.Labels[col], i)
					}
					if c.Scenario != nil && len(got.Phases) == 0 {
						t.Fatalf("%v cell %s/%s carries no phase windows", mode, name, m.Labels[col])
					}
				}
			}
		}
	}
	if ts := l.TapeStats(); ts.Simulate <= 0 || ts.Builds != 0 || ts.Generate != 0 {
		t.Fatalf("tape stats %+v, want simulation time and no tape work", ts)
	}
}

// tapeFileRoundTrip writes tape to a file and reads it back.
func tapeFileRoundTrip(t *testing.T, tape *trace.Tape) *trace.Tape {
	t.Helper()
	path := filepath.Join(t.TempDir(), "row.tape")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTape(f, tape); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := trace.ReadTape(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestPlanMixesSpecAndScenarioRows: Lab.Plan resolves workload and
// scenario names in one matrix, and memoizes scenario cells across
// plans.
func TestPlanMixesSpecAndScenarioRows(t *testing.T) {
	started := 0
	l := scenarioLab(t, WithProgress(func(ev ResultEvent) {
		if ev.Kind == CellStarted {
			started++
		}
	}))
	prefs := []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 0.125}}
	plan := l.Plan([]string{"web-apache", "phase-flip"}, prefs)
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	if plan.Cells[0].Scenario != nil || plan.Cells[1].Scenario == nil {
		t.Fatal("rows resolved to the wrong workload kinds")
	}
	m, err := l.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Complete() || started != 2 {
		t.Fatalf("first run: complete=%v started=%d", m.Complete(), started)
	}
	if res := m.At(0, 0).Res; len(res.Phases) != 0 {
		t.Fatal("stationary row grew phase windows")
	}
	if res := m.At(1, 0).Res; len(res.Phases) != 3 {
		t.Fatalf("scenario row has %d phase windows, want 3", len(res.Phases))
	}

	// Memoized rerun: no new cells, identical results.
	m2, err := l.Run(context.Background(), l.Plan([]string{"web-apache", "phase-flip"}, prefs))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 {
		t.Fatalf("memoized rerun re-simulated (%d cells started)", started)
	}
	if !reflect.DeepEqual(m.At(1, 0).Res, m2.At(1, 0).Res) {
		t.Fatal("memoized scenario result differs")
	}

	// Unknown names report both name spaces.
	bad := l.Plan([]string{"no-such-thing"}, prefs)
	if bad.Err() == nil {
		t.Fatal("plan accepted an unknown name")
	}
}

// TestScenarioFunctionalMode: scenario rows run on the functional
// driver too, with phase windows and zero timing.
func TestScenarioFunctionalMode(t *testing.T) {
	l := scenarioLab(t)
	m, err := l.Run(context.Background(), l.Plan(
		[]string{"scan-storm"},
		[]sim.PrefSpec{{Kind: sim.Ideal}},
		InMode(Functional),
	))
	if err != nil {
		t.Fatal(err)
	}
	res := m.At(0, 0).Res
	if res.IPC != 0 || res.ElapsedCycles != 0 {
		t.Fatal("functional scenario produced timing numbers")
	}
	if len(res.Phases) != 3 {
		t.Fatalf("functional scenario has %d phase windows, want 3", len(res.Phases))
	}
}
