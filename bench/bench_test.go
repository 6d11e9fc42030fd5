package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks the definition against this benchmark: the
// same workloads, in order and with the same reasons, and names, units
// and bounds in range.
func TestBenchmarkJSON(t *testing.T) {
	spec := readBenchmarkJSON(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, sw := range spec.Workloads {
		if w, err := newWorkload(sw.Name, 42, 1); err != nil || w.why != sw.Why {
			t.Errorf("%s: why %q, BENCHMARK.json says %q (%v)", sw.Name, w.why, sw.Why, err)
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", name, unit)
		}
		seen[name] = true
	}
	for _, n := range names {
		check(n, "count")
	}
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
}

// TestGoldenFig8MatchesBenchPR10 pins the golden headline matrix to the
// BENCH_PR10.json snapshot: the same 24 cells, equal in every exported
// field but the host time.
func TestGoldenFig8MatchesBenchPR10(t *testing.T) {
	g, err := loadGolden(42, "fig8-timed")
	if err != nil || g == nil {
		t.Fatalf("no fig8-timed golden at seed 42: %v", err)
	}
	b, err := os.ReadFile("../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Matrix struct {
			Cells []map[string]any `json:"cells"`
		} `json:"matrix"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]any{}
	for _, c := range snap.Matrix.Cells {
		delete(c, "wall_ms")
		want[c["workload"].(string)+"/"+c["variant"].(string)] = c
	}
	if len(g.Cells) != 24 || len(want) != 24 {
		t.Fatalf("golden has %d cells, snapshot %d; want 24 each", len(g.Cells), len(want))
	}
	for _, c := range g.Cells {
		if !reflect.DeepEqual(c.Export, want[c.key()]) {
			t.Errorf("%s: golden %v, snapshot %v", c.key(), c.Export, want[c.key()])
		}
	}
}

// TestSmoke runs every workload at a fortieth of its size, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkJSON(t)
	start := time.Now()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, 42, 40)
			if err != nil {
				t.Fatal(err)
			}
			p := params{seed: 42, traced: traced, shrink: 40}
			o, err := measure(context.Background(), w, p)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if traced {
				// The DRAM replay runs at the timed run's measured load.
				l := o.replay.load
				if math.Abs(l.DRAMUtilReplay-l.DRAMUtil) > 0.05*l.DRAMUtil {
					t.Errorf("%s: DRAM replay utilization %.4f, timed run measured %.4f", name, l.DRAMUtilReplay, l.DRAMUtil)
				}
			}
			res := newReport(o, p).result()
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", name, traced, res.Failed, res.Attempted, o.failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", name, traced, n)
				case m.Unit != unit:
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", name, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", name, n, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want positive", name, n, m.Value)
				}
			}
		}
	}
	t.Logf("%d workloads, untraced and traced, in %v", len(workloadNames), time.Since(start).Round(time.Millisecond))
}
