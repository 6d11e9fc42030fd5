package lab

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"stms/internal/sim"
)

// groupPrefs spans every Kind plus a second STMS, so a row is split
// into a group of maxGroup and a remainder.
var groupPrefs = []sim.PrefSpec{
	{Kind: sim.None}, {Kind: sim.Ideal}, {Kind: sim.STMS, SampleProb: 0.125},
	{Kind: sim.TSE}, {Kind: sim.EBCP}, {Kind: sim.ULMT}, {Kind: sim.Markov},
	{Kind: sim.STMS, SampleProb: 0.5},
}

var groupRows = []string{"oltp-db2", "web-apache", "phase-flip"}

// canonicalExport is the matrix JSON export without host time, followed
// by every cell's full Results.
func canonicalExport(t *testing.T, m *Matrix) []byte {
	t.Helper()
	c := *m
	c.Cells = append([]CellResult(nil), m.Cells...)
	for i := range c.Cells {
		c.Cells[i].Wall = 0
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cr := range m.Cells {
		b, err := json.Marshal(cr.Res)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

// eventLog records a run's events and checks their order per cell.
type eventLog struct {
	mu      sync.Mutex
	started map[[2]int]bool
	ended   map[[2]int]EventKind
	bad     []string
}

func newEventLog() *eventLog {
	return &eventLog{started: map[[2]int]bool{}, ended: map[[2]int]EventKind{}}
}

func (e *eventLog) note(ev ResultEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := [2]int{ev.Cell.Row, ev.Cell.Col}
	switch ev.Kind {
	case CellStarted:
		if e.started[k] || e.ended[k] != 0 {
			e.bad = append(e.bad, "late or repeated start of "+ev.Cell.Workload+"/"+ev.Cell.Label)
		}
		e.started[k] = true
	default:
		if !e.started[k] || e.ended[k] != 0 {
			e.bad = append(e.bad, ev.Kind.String()+" without one start: "+ev.Cell.Workload+"/"+ev.Cell.Label)
		}
		e.ended[k] = ev.Kind
	}
}

func runFunctionalMatrix(t *testing.T, prefs []sim.PrefSpec, opts ...Option) (*Matrix, *eventLog, error) {
	t.Helper()
	log := newEventLog()
	l := testLab(t, append(opts, WithProgress(log.note))...)
	m, err := l.Run(context.Background(), l.Plan(groupRows, prefs, InMode(Functional)))
	return m, log, err
}

// runUngrouped runs every cell of the functional groupRows × prefs plan
// as a one-cell plan of its own, so no lockstep group can form, and
// assembles the outcomes into the plan's matrix: the reference that
// grouped runs are compared with.
func runUngrouped(t *testing.T, prefs []sim.PrefSpec) (*Matrix, *eventLog, error) {
	t.Helper()
	log := newEventLog()
	l := testLab(t, WithParallelism(1), WithProgress(log.note))
	p := l.Plan(groupRows, prefs, InMode(Functional))
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	m := &Matrix{Workloads: p.Workloads, Labels: p.Labels, Cells: make([]CellResult, len(p.Cells))}
	for i, c := range p.Cells {
		one := &RunPlan{Workloads: p.Workloads, Labels: p.Labels, Cells: []Cell{c}}
		// A failed cell carries its error; m.Err reports the first.
		cm, _ := l.Run(context.Background(), one)
		m.Cells[i] = cm.Cells[0]
	}
	return m, log, m.Err()
}

// TestGroupedMatrixMatchesUngrouped: lockstep groups change nothing a
// matrix reports — the export and every cell's Results are byte-identical
// to the same plan run one cell per plan (so no grouping), at
// parallelism 1 and 4 — and every cell starts before it finishes.
func TestGroupedMatrixMatchesUngrouped(t *testing.T) {
	ref, log, err := runUngrouped(t, groupPrefs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalExport(t, ref)
	if len(log.bad) > 0 || len(log.ended) != len(ref.Cells) {
		t.Fatalf("ungrouped events: %v (%d of %d cells ended)", log.bad, len(log.ended), len(ref.Cells))
	}
	for _, par := range []int{1, 4} {
		m, log, err := runFunctionalMatrix(t, groupPrefs, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalExport(t, m); !bytes.Equal(got, want) {
			t.Fatalf("par %d: grouped export differs from ungrouped", par)
		}
		if len(log.bad) > 0 || len(log.ended) != len(m.Cells) {
			t.Fatalf("par %d events: %v (%d of %d cells ended)", par, log.bad, len(log.ended), len(m.Cells))
		}
		for _, cr := range m.Cells {
			if cr.Wall <= 0 {
				t.Fatalf("par %d: cell %s/%s has no wall time share", par, cr.Cell.Workload, cr.Cell.Label)
			}
		}
	}
}

// TestBatchGroups pins the grouping rules: functional cells of one
// trace identity and configuration group in plan order up to maxGroup,
// split further while there are fewer items than workers; timed cells,
// sampled cells and sessions with workers run cells alone. Grouping
// needs no tape store: the sessions here hold none, and they group.
func TestBatchGroups(t *testing.T) {
	l := testLab(t, WithParallelism(1))
	plan := l.Plan([]string{"oltp-db2", "web-apache"}, groupPrefs, InMode(Functional))
	todo := make([]int, len(plan.Cells))
	for i := range todo {
		todo[i] = i
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	if got := l.batch(plan.Cells, todo); !reflect.DeepEqual(got, want) {
		t.Fatalf("par 1: %v, want %v", got, want)
	}
	l.par = 6
	want = [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	if got := l.batch(plan.Cells, todo); !reflect.DeepEqual(got, want) {
		t.Fatalf("par 6: %v, want %v", got, want)
	}
	l.par = 64
	if got := l.batch(plan.Cells, todo); len(got) != len(todo) {
		t.Fatalf("par 64: %d items for %d cells", len(got), len(todo))
	}

	l.par = 1
	// A per-cell override splits a row's configuration.
	cells := append([]Cell(nil), plan.Cells...)
	cells[1].Config.Seed++
	want = [][]int{{0, 2, 3, 4}, {1}, {5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}}
	if got := l.batch(cells, todo); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-cell seed: %v, want %v", got, want)
	}
	singles := func(l *Lab, cells []Cell) {
		t.Helper()
		if got := l.batch(cells, todo); len(got) != len(todo) {
			t.Fatalf("%d items for %d cells, want one each", len(got), len(todo))
		}
	}
	singles(l, l.Plan([]string{"oltp-db2", "web-apache"}, groupPrefs).Cells)
	cells = append([]Cell(nil), plan.Cells...)
	for i := range cells {
		cells[i].Sampling.Windows = 4
	}
	singles(l, cells)
	remote := testLab(t, WithParallelism(1))
	remote.remote = &remotePool{}
	singles(remote, plan.Cells)
}

// TestGroupInvalidVariant: a row with one invalid variant finishes its
// siblings and fails only that cell, with the error it has ungrouped.
func TestGroupInvalidVariant(t *testing.T) {
	prefs := []sim.PrefSpec{{Kind: sim.None}, {Kind: sim.STMS, SampleProb: 2}, {Kind: sim.Ideal}}
	ref, _, refErr := runUngrouped(t, prefs)
	m, log, err := runFunctionalMatrix(t, prefs)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("grouped run error %v, ungrouped %v", err, refErr)
	}
	if len(log.bad) > 0 || len(log.ended) != len(m.Cells) {
		t.Fatalf("events: %v (%d of %d cells ended)", log.bad, len(log.ended), len(m.Cells))
	}
	for i, cr := range m.Cells {
		rc := ref.Cells[i]
		if cr.Cell.Col == 1 {
			if cr.Err == nil || rc.Err == nil || cr.Err.Error() != rc.Err.Error() || log.ended[[2]int{cr.Cell.Row, 1}] != CellFailed {
				t.Fatalf("invalid cell %s: error %v, ungrouped %v", cr.Cell.Workload, cr.Err, rc.Err)
			}
			continue
		}
		if cr.Err != nil || cr.Res == nil || !reflect.DeepEqual(*cr.Res, *rc.Res) {
			t.Fatalf("sibling %s/%s: error %v, result differs from ungrouped: %v", cr.Cell.Workload, cr.Cell.Label, cr.Err, cr.Res == nil)
		}
	}
}

// TestGroupCancel: cancelling a matrix while its groups run returns
// ctx.Err() and leaves no goroutines behind.
func TestGroupCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	l := testLab(t,
		WithWindows(50_000, 400_000),
		WithProgress(func(ev ResultEvent) {
			if ev.Kind == CellStarted {
				// Let the group get under way before cancelling it.
				once.Do(func() { time.AfterFunc(50*time.Millisecond, cancel) })
			}
		}))
	m, err := l.Run(ctx, l.Plan([]string{"oltp-db2"}, groupPrefs[:3], InMode(Functional)))
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v", err)
	}
	for _, cr := range m.Cells {
		if cr.Res != nil || cr.Err != nil {
			t.Fatalf("cancelled cell %s/%s recorded an outcome", cr.Cell.Workload, cr.Cell.Label)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after cancel, %d before", n, before)
	}
}
