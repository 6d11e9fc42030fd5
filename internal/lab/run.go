package lab

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"stms/internal/sim"
)

// EventKind classifies a ResultEvent.
type EventKind int

// Cell lifecycle events.
const (
	CellStarted EventKind = iota
	CellFinished
	CellFailed
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case CellStarted:
		return "started"
	case CellFinished:
		return "finished"
	case CellFailed:
		return "failed"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// ResultEvent streams per-cell progress out of Lab.Run. Events are
// delivered serialized (one at a time) to the session's progress sink.
type ResultEvent struct {
	Kind  EventKind
	Cell  Cell
	Done  int           // cells completed (finished, failed or memo-hit) so far
	Total int           // cells in the plan
	Res   *sim.Results  // CellFinished only (read-only; shared with the Matrix)
	Err   error         // CellFailed only
	Wall  time.Duration // CellFinished/CellFailed: wall-clock cell time
	Note  string        // dispatch degradation note (retries, breaker skips, local fallback)
}

// Run executes the plan's cells across the session's worker pool and
// returns the indexed result Matrix. Per-cell results are deterministic
// functions of the cell configuration, so the Matrix is identical
// regardless of parallelism. Cells already in the session memo — or
// duplicated within the plan — are simulated only once, and functional
// cells that share a trace simulate in lockstep groups (see batch).
//
// Cancelling ctx stops the workers promptly (in-flight simulations poll
// the context every few thousand records); Run then returns the partial
// Matrix alongside ctx.Err(). A cell-level failure (invalid per-cell
// config) does not abort sibling cells: the whole matrix still
// executes, the failure is recorded on its CellResult, and Run returns
// the first such error alongside the otherwise-complete Matrix.
func (l *Lab) Run(ctx context.Context, p *RunPlan) (*Matrix, error) {
	if p == nil {
		return nil, fmt.Errorf("lab: nil plan")
	}
	if p.err != nil {
		return nil, p.err
	}
	m := &Matrix{
		Workloads: append([]string(nil), p.Workloads...),
		Labels:    append([]string(nil), p.Labels...),
		Cells:     make([]CellResult, len(p.Cells)),
	}
	st := &runState{lab: l, m: m, total: len(p.Cells), dups: make(map[int][]int)}

	// Serve memo hits first (emitting their finished events
	// immediately), collapse identical cells within the plan onto one
	// representative, and fan the rest out over the pool.
	var todo []int
	rep := make(map[string]int) // cellKey → representative index in todo
	for i := range p.Cells {
		cell := p.Cells[i]
		m.Cells[i] = CellResult{Cell: cell}
		key := cellKey(&cell)
		if sr, ok := l.lookupSmp(key); ok {
			m.Cells[i].Res = &sr.Results
			m.Cells[i].Sampled = sr
			st.emit(ResultEvent{Kind: CellFinished, Cell: cell, Res: &sr.Results})
			continue
		}
		if res, ok := l.lookup(key); ok {
			m.Cells[i].Res = res
			st.emit(ResultEvent{Kind: CellFinished, Cell: cell, Res: res})
			continue
		}
		if r, ok := rep[key]; ok {
			st.dups[r] = append(st.dups[r], i)
			continue
		}
		rep[key] = i
		todo = append(todo, i)
	}

	work := l.batch(p.Cells, todo)
	par := l.par
	if par > len(work) {
		par = len(work)
	}
	if par < 1 {
		par = 1
	}
	items := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range items {
				if len(item) == 1 {
					st.runCell(ctx, item[0])
				} else {
					st.runGroup(ctx, item)
				}
				// The item's tables are dead: collect them before the next
				// item allocates, so the heap stays near one item's live
				// set. Here, not in sim.Run (tests make thousands of tiny
				// runs) nor by debug.FreeOSMemory (the next item would
				// fault the pages back in); DESIGN.md §5.
				runtime.GC()
			}
		}()
	}
feed:
	for _, item := range work {
		select {
		case <-ctx.Done():
			break feed
		case items <- item:
		}
	}
	close(items)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return m, err
	}
	return m, m.Err()
}

// dispatch routes a cell to the session's worker pool when one is
// configured (WithWorkers) and to in-process simulation otherwise.
// Either path produces bit-identical results; the remote pool itself
// degrades to simulate when every attempt fails. The duration is the
// cell's non-simulation overhead (network, queueing and retries; zero
// locally) and the note records any remote degradation for the
// progress stream. Sampled cells always simulate locally: their
// parallelism is the window fan-out itself, and the worker protocol
// ships exact results only.
func (l *Lab) dispatch(ctx context.Context, cell *Cell) (sim.Results, *sim.SampledResults, time.Duration, string, error) {
	if cell.Sampling.Windows > 1 {
		sr, err := sim.Sample(ctx, cell.Config, input(cell), cell.Pref, cell.Sampling)
		if err != nil {
			return sim.Results{}, nil, 0, "", err
		}
		return sr.Results, &sr, 0, "", nil
	}
	if l.remote == nil {
		res, err := simulateCell(ctx, cell)
		return res, nil, 0, "", err
	}
	res, d, note, err := l.remote.run(ctx, l, cell)
	return res, nil, d, note, err
}

// input returns the cell's trace input: its scenario or spec, generated
// live inside the run.
func input(cell *Cell) sim.Input {
	if cell.Scenario != nil {
		return sim.FromScenario(*cell.Scenario)
	}
	return sim.FromSpec(cell.Spec)
}

// maxGroup caps the cells one lockstep group simulates together.
const maxGroup = 4

// batch splits the cells to simulate into work items, in plan order. A
// work item is one cell, or a lockstep group of functional cells that
// share a trace identity and a configuration: the group generates the
// trace and simulates the base hierarchy once for all its variants
// (sim.Run over several variants). Grouping needs local execution;
// sampled cells run alone. Groups hold at most maxGroup cells and split
// further while there are fewer items than workers.
func (l *Lab) batch(cells []Cell, todo []int) [][]int {
	type groupKey struct {
		trace string // sim.Identity.TraceKey
		cfg   sim.Config
	}
	open := make(map[groupKey]int) // group → index of its last item
	var items [][]int
	for _, i := range todo {
		c := &cells[i]
		if l.remote != nil || c.Mode != Functional || c.Sampling.Windows > 1 {
			items = append(items, []int{i})
			continue
		}
		k := groupKey{cellIdentity(c).TraceKey(), c.Config}
		if j, ok := open[k]; ok && len(items[j]) < maxGroup {
			items[j] = append(items[j], i)
			continue
		}
		open[k] = len(items)
		items = append(items, []int{i})
	}
	for len(items) > 0 && len(items) < l.par {
		j := 0
		for k := range items {
			if len(items[k]) > len(items[j]) {
				j = k
			}
		}
		if len(items[j]) < 2 {
			break
		}
		it := items[j]
		h := len(it) / 2
		items[j] = it[:h:h]
		items = slices.Insert(items, j+1, it[h:])
	}
	return items
}

// simulate runs cells that share a trace and a configuration — one
// cell, or a lockstep group of functional cells — and returns their
// Results in cell order.
func simulate(ctx context.Context, cells []*Cell) ([]sim.Results, error) {
	ps := make([]sim.PrefSpec, len(cells))
	for k, c := range cells {
		ps[k] = c.Pref
	}
	return sim.Run(ctx, cells[0].Config, input(cells[0]), ps, sim.WithMode(cells[0].Mode))
}

// simulateCell runs one cell alone.
func simulateCell(ctx context.Context, cell *Cell) (sim.Results, error) {
	rs, err := simulate(ctx, []*Cell{cell})
	if err != nil {
		return sim.Results{}, err
	}
	return rs[0], nil
}

// runState carries the per-Run bookkeeping shared by the workers.
type runState struct {
	lab   *Lab
	m     *Matrix
	total int
	dups  map[int][]int // representative cell index → identical cells

	evMu sync.Mutex
	done int
}

// emit counts completions and delivers the event to the session sink,
// serialized.
func (st *runState) emit(ev ResultEvent) {
	st.evMu.Lock()
	defer st.evMu.Unlock()
	if ev.Kind != CellStarted {
		st.done++
	}
	if st.lab.onEvent == nil {
		return
	}
	ev.Done = st.done
	ev.Total = st.total
	st.lab.onEvent(ev)
}

// runCell executes one cell and records its outcome.
func (st *runState) runCell(ctx context.Context, i int) {
	st.emit(ResultEvent{Kind: CellStarted, Cell: st.m.Cells[i].Cell})
	st.execCell(ctx, i)
}

// execCell simulates a started cell alone and records its outcome.
func (st *runState) execCell(ctx context.Context, i int) {
	cell := st.m.Cells[i].Cell
	start := time.Now()

	var res sim.Results
	var sr *sim.SampledResults
	var err error
	var overhead time.Duration
	var note string
	func() {
		// The simulator substrate panics on internal invariant breaks;
		// contain those to the failing cell.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("lab: cell %s/%s panicked: %v", cell.Workload, cell.Label, r)
			}
		}()
		res, sr, overhead, note, err = st.lab.dispatch(ctx, &cell)
	}()

	wall := time.Since(start)
	st.addSim(wall, overhead)
	st.finish(ctx, i, res, sr, err, wall, note)
}

// runGroup simulates a lockstep group of cells (see Lab.batch) in one
// run. Every cell starts when the group does and finishes, in plan
// order, when it ends; each is charged an equal share of the group's
// wall time. A group that fails other than by cancellation — a panic
// or error in any member — re-runs its cells singly, so every cell
// gets exactly the outcome it has ungrouped.
func (st *runState) runGroup(ctx context.Context, item []int) {
	cells := make([]*Cell, len(item))
	for k, i := range item {
		cells[k] = &st.m.Cells[i].Cell
		st.emit(ResultEvent{Kind: CellStarted, Cell: *cells[k]})
	}
	start := time.Now()
	var rs []sim.Results
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("lab: group panicked: %v", r)
			}
		}()
		rs, err = simulate(ctx, cells)
	}()
	wall := time.Since(start)
	st.addSim(wall, 0)
	if err != nil {
		if ctx.Err() == nil {
			for _, i := range item {
				st.execCell(ctx, i)
			}
		}
		return
	}
	share := wall / time.Duration(len(item))
	for k, i := range item {
		st.finish(ctx, i, rs[k], nil, nil, share, "")
	}
}

// addSim accounts a simulation's wall time, less its remote overhead
// (network, queueing, retries), as session simulation time.
func (st *runState) addSim(wall, overhead time.Duration) {
	if overhead > wall {
		overhead = wall
	}
	st.lab.simNS.Add(int64(wall - overhead))
}

// finish records a simulated cell's outcome on it and its duplicates,
// memoizes a result, and emits the cells' events.
func (st *runState) finish(ctx context.Context, i int, res sim.Results, sr *sim.SampledResults, err error, wall time.Duration, note string) {
	cr := &st.m.Cells[i]
	cell := cr.Cell
	cr.Wall = wall
	if err != nil {
		if ctx.Err() == nil {
			// Real cell failure, not cancellation fallout: record it on
			// the representative and every identical cell.
			cr.Err = err
			st.emit(ResultEvent{Kind: CellFailed, Cell: cell, Err: err, Wall: cr.Wall, Note: note})
			for _, d := range st.dups[i] {
				dr := &st.m.Cells[d]
				dr.Err = err
				st.emit(ResultEvent{Kind: CellFailed, Cell: dr.Cell, Err: err})
			}
		}
		return
	}
	if sr != nil {
		cr.Sampled = sr
		cr.Res = &sr.Results
		st.lab.storeSmp(cellKey(&cell), sr)
	} else {
		cr.Res = &res
		st.lab.store(cellKey(&cell), cr.Res)
	}
	st.emit(ResultEvent{Kind: CellFinished, Cell: cell, Res: cr.Res, Wall: cr.Wall, Note: note})
	// Identical plan cells share the result without re-simulating.
	for _, d := range st.dups[i] {
		dr := &st.m.Cells[d]
		dr.Res = cr.Res
		dr.Sampled = cr.Sampled
		st.emit(ResultEvent{Kind: CellFinished, Cell: dr.Cell, Res: cr.Res})
	}
}
