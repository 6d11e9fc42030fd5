package lab

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"stms/internal/sim"
)

// TestSampledCells runs a sampled matrix end to end: every timed cell
// carries a full SampledResults (K windows, per-metric CIs), the
// stitched Results alias the sampled estimate, and the export schema
// gains the windows/ci fields.
func TestSampledCells(t *testing.T) {
	const K = 4
	l := testLab(t, WithSampling(sim.Sampling{Windows: K}))
	p := l.Plan([]string{"web-apache"}, []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 1}})
	m, err := l.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Get("web-apache", "stms@p=1")
	if cell == nil || cell.Res == nil {
		t.Fatal("sampled cell missing")
	}
	sr := cell.Sampled
	if sr == nil {
		t.Fatal("sampled cell carries no SampledResults")
	}
	if sr.Exact {
		t.Fatal("K=4 estimate flagged Exact")
	}
	if got := len(sr.Windows); got != K {
		t.Fatalf("windows = %d, want %d", got, K)
	}
	if cell.Res != &sr.Results {
		t.Fatal("Res does not alias the stitched sampled Results")
	}
	if sr.CI.IPC.HalfWidth() <= 0 {
		t.Fatalf("degenerate IPC interval %+v", sr.CI.IPC)
	}

	// The export schema carries the sampled fields.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	if !strings.Contains(js, `"windows": 4`) || !strings.Contains(js, `"ci"`) {
		t.Fatalf("export missing sampled fields:\n%s", js)
	}

	// Re-running the identical plan serves the estimate from the memo,
	// SampledResults included.
	m2, err := l.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	c2 := m2.Get("web-apache", "stms@p=1")
	if c2.Sampled != sr {
		t.Fatal("memo hit did not return the memoized SampledResults")
	}
	if c2.Wall != 0 {
		t.Fatal("memo hit re-simulated the cell")
	}
}

// TestSampledMemoDistinctFromExact verifies a sampled cell and the
// exact cell of the same configuration occupy different memo slots —
// and that the estimates genuinely differ while staying close.
func TestSampledMemoDistinctFromExact(t *testing.T) {
	l := testLab(t)
	prefs := []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 1}}
	exact := l.Plan([]string{"web-apache"}, prefs)
	sampled := l.Plan([]string{"web-apache"}, prefs,
		ForEachCell(func(c *Cell) { c.Sampling = sim.Sampling{Windows: 4} }))
	if k0, k1 := cellKey(&exact.Cells[0]), cellKey(&sampled.Cells[0]); k0 == k1 {
		t.Fatalf("sampled cell shares memo key with exact cell: %q", k0)
	}

	me, err := l.Run(context.Background(), exact)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := l.Run(context.Background(), sampled)
	if err != nil {
		t.Fatal(err)
	}
	ce, cs := me.Cells[0], ms.Cells[0]
	if ce.Sampled != nil {
		t.Fatal("exact cell carries SampledResults")
	}
	if cs.Sampled == nil {
		t.Fatal("sampled cell lost SampledResults")
	}
	if reflect.DeepEqual(ce.Res, cs.Res) {
		t.Fatal("sampled estimate bit-identical to exact run — windows did not run independently")
	}
	// The estimate must still be in the neighborhood of the exact run.
	if e, s := ce.Res.IPC, cs.Res.IPC; s < e*0.9 || s > e*1.1 {
		t.Fatalf("sampled IPC %.4f far from exact %.4f", s, e)
	}
}

// TestSampledNormalization: K<=1 and functional cells normalize to
// exact cells — same memo key, no SampledResults.
func TestSampledNormalization(t *testing.T) {
	l := testLab(t, WithSampling(sim.Sampling{Windows: 1}))
	prefs := []sim.PrefSpec{{Kind: sim.None}}
	p := l.Plan([]string{"web-zeus"}, prefs)
	if got := p.Cells[0].Sampling; got != (sim.Sampling{}) {
		t.Fatalf("K=1 cell kept sampling %+v", got)
	}
	lf, err := New(WithScale(0.0625), WithSeed(1), WithWindows(1_000, 2_000),
		WithSampling(sim.Sampling{Windows: 8}))
	if err != nil {
		t.Fatal(err)
	}
	pf := lf.Plan([]string{"web-zeus"}, prefs, InMode(Functional))
	if got := pf.Cells[0].Sampling; got != (sim.Sampling{}) {
		t.Fatalf("functional cell kept sampling %+v", got)
	}
	m, err := l.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells[0].Sampled != nil {
		t.Fatal("normalized exact cell carries SampledResults")
	}

	if _, err := New(WithSampling(sim.Sampling{Windows: 4, Confidence: 1.5})); err == nil {
		t.Fatal("confidence 1.5 accepted")
	}
}

// TestSampledMatchesDirectRun: the lab's sampled cell is bit-identical
// to calling the sim API directly on the same configuration.
func TestSampledMatchesDirectRun(t *testing.T) {
	smp := sim.Sampling{Windows: 3}
	l := testLab(t, WithSampling(smp))
	p := l.Plan([]string{"oltp-db2"}, []sim.PrefSpec{{Kind: sim.STMS, SampleProb: 1}})
	m, err := l.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Cells[0]
	if cell.Sampled == nil {
		t.Fatal("no sampled result")
	}
	want, err := sim.Sample(context.Background(), cell.Cell.Config, sim.FromSpec(cell.Cell.Spec), cell.Cell.Pref, smp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cell.Sampled, want) {
		t.Fatal("lab sampled cell differs from direct sim.Sample")
	}
}
