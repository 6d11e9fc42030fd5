package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"stms/internal/sim"
	"stms/internal/stats"
)

// CellResult is one executed cell of a Matrix.
type CellResult struct {
	Cell Cell
	Res  *sim.Results // nil if the cell failed or was cancelled
	Err  error
	Wall time.Duration // wall-clock simulation time (0 on memo hits)

	// Sampled carries the full sampled estimate (per-window details,
	// confidence intervals) for cells run under WithSampling; Res then
	// aliases its stitched Results. Nil for exact cells and for sampled
	// cells replayed from a prior session's manifest.
	Sampled *sim.SampledResults
}

// Matrix is the indexed result of running a plan: rows are workloads,
// columns are prefetcher variants. Results are shared, read-only
// pointers into the session memo.
type Matrix struct {
	Workloads []string
	Labels    []string
	Cells     []CellResult // row-major
}

// At returns the cell at (row, col); nil if out of range.
func (m *Matrix) At(row, col int) *CellResult {
	if row < 0 || col < 0 || row >= len(m.Workloads) || col >= len(m.Labels) {
		return nil
	}
	return &m.Cells[row*len(m.Labels)+col]
}

// Get returns the cell for a workload and column label; nil if absent.
func (m *Matrix) Get(workload, label string) *CellResult {
	return m.At(m.rowOf(workload), m.ColOf(label))
}

func (m *Matrix) rowOf(workload string) int {
	for i, w := range m.Workloads {
		if w == workload {
			return i
		}
	}
	return -1
}

// ColOf returns the column index of a label, or -1.
func (m *Matrix) ColOf(label string) int {
	for i, l := range m.Labels {
		if l == label {
			return i
		}
	}
	return -1
}

// Row returns the cells of one workload across all variants.
func (m *Matrix) Row(row int) []CellResult {
	if row < 0 || row >= len(m.Workloads) {
		return nil
	}
	cols := len(m.Labels)
	return m.Cells[row*cols : (row+1)*cols]
}

// Err returns the first per-cell failure in the matrix, nil if all
// cells ran (or were cancelled before starting, leaving Res nil with no
// error).
func (m *Matrix) Err() error {
	for i := range m.Cells {
		if m.Cells[i].Err != nil {
			return m.Cells[i].Err
		}
	}
	return nil
}

// Complete reports whether every cell carries a result.
func (m *Matrix) Complete() bool {
	for i := range m.Cells {
		if m.Cells[i].Res == nil {
			return false
		}
	}
	return true
}

// Speedups returns each non-baseline column's fractional speedup over
// the named baseline column, one map per column label, keyed by
// workload. Cells without results are skipped.
func (m *Matrix) Speedups(baseLabel string) (map[string]map[string]float64, error) {
	bc := m.ColOf(baseLabel)
	if bc < 0 {
		return nil, fmt.Errorf("lab: no column %q in matrix", baseLabel)
	}
	out := make(map[string]map[string]float64, len(m.Labels)-1)
	for col, label := range m.Labels {
		if col == bc {
			continue
		}
		series := make(map[string]float64, len(m.Workloads))
		for row, w := range m.Workloads {
			cell, base := m.At(row, col), m.At(row, bc)
			if cell.Res == nil || base.Res == nil {
				continue
			}
			series[w] = cell.Res.SpeedupOver(base.Res)
		}
		out[label] = series
	}
	return out, nil
}

// SpeedupTable renders per-workload speedup-over-baseline columns
// (Fig. 8/9 style) for every non-baseline variant, with a geometric
// mean row of the speedup factors.
func (m *Matrix) SpeedupTable(baseLabel string) (*stats.Table, error) {
	bc := m.ColOf(baseLabel)
	if bc < 0 {
		return nil, fmt.Errorf("lab: no column %q in matrix", baseLabel)
	}
	cols := []string{"workload"}
	for i, l := range m.Labels {
		if i != bc {
			cols = append(cols, l)
		}
	}
	t := stats.NewTable(fmt.Sprintf("speedup over %s", baseLabel), cols...)
	factors := make([][]float64, len(m.Labels))
	for row, w := range m.Workloads {
		cells := []interface{}{w}
		base := m.At(row, bc)
		for col := range m.Labels {
			if col == bc {
				continue
			}
			cell := m.At(row, col)
			if cell.Res == nil || base.Res == nil {
				cells = append(cells, "-")
				continue
			}
			sp := cell.Res.SpeedupOver(base.Res)
			factors[col] = append(factors[col], 1+sp)
			cells = append(cells, stats.Pct(sp))
		}
		t.AddRow(cells...)
	}
	gm := []interface{}{"geomean"}
	for col := range m.Labels {
		if col == bc {
			continue
		}
		gm = append(gm, stats.Pct(stats.GeoMean(factors[col])-1))
	}
	t.AddRow(gm...)
	return t, nil
}

// CoverageTable renders per-workload miss coverage for every variant
// column.
func (m *Matrix) CoverageTable() *stats.Table {
	cols := append([]string{"workload"}, m.Labels...)
	t := stats.NewTable("miss coverage", cols...)
	for row, w := range m.Workloads {
		cells := []interface{}{w}
		for col := range m.Labels {
			if cell := m.At(row, col); cell.Res != nil {
				cells = append(cells, stats.Pct(cell.Res.Coverage()))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// cellJSON is the export schema for one cell.
type cellJSON struct {
	Workload       string  `json:"workload"`
	Variant        string  `json:"variant"`
	Mode           string  `json:"mode"`
	Seed           uint64  `json:"seed"`
	Scale          float64 `json:"scale"`
	Error          string  `json:"error,omitempty"`
	WallMS         float64 `json:"wall_ms"`
	IPC            float64 `json:"ipc,omitempty"`
	MLP            float64 `json:"mlp,omitempty"`
	DRAMUtil       float64 `json:"dram_util,omitempty"`
	Coverage       float64 `json:"coverage"`
	FullCoverage   float64 `json:"full_coverage"`
	BaselineMisses uint64  `json:"baseline_misses"`
	Records        uint64  `json:"records"`
	ElapsedCycles  uint64  `json:"elapsed_cycles,omitempty"`
	Instrs         uint64  `json:"instrs,omitempty"`
	OverheadTotal  float64 `json:"overhead_total,omitempty"`

	// Frame-source accounting: how many columnar frames (and records
	// inside them) the cell's drivers consumed. Zero would mean the cell
	// somehow bypassed the batched record path.
	FramesDecoded uint64 `json:"frames_decoded"`
	FrameRecords  uint64 `json:"frame_records"`

	// Sampled-run fields: the window count and per-metric confidence
	// intervals when the cell ran under WithSampling (absent for exact
	// cells and manifest replays of sampled cells).
	Windows int            `json:"windows,omitempty"`
	CI      *sim.SampledCI `json:"ci,omitempty"`
}

// matrixJSON is the export schema for a whole matrix.
type matrixJSON struct {
	Workloads []string   `json:"workloads"`
	Variants  []string   `json:"variants"`
	Cells     []cellJSON `json:"cells"`
}

// MarshalJSON exports the matrix with the headline per-cell metrics.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	out := matrixJSON{Workloads: m.Workloads, Variants: m.Labels}
	for i := range m.Cells {
		c := &m.Cells[i]
		cj := cellJSON{
			Workload: c.Cell.Workload,
			Variant:  c.Cell.Label,
			Mode:     c.Cell.Mode.String(),
			Seed:     c.Cell.Config.Seed,
			Scale:    c.Cell.Config.Scale,
			WallMS:   float64(c.Wall.Microseconds()) / 1000,
		}
		if c.Err != nil {
			cj.Error = c.Err.Error()
		}
		if r := c.Res; r != nil {
			cj.IPC = r.IPC
			cj.MLP = r.MLP
			cj.DRAMUtil = r.DRAMUtil
			cj.Coverage = r.Coverage()
			cj.FullCoverage = r.FullCoverage()
			cj.BaselineMisses = r.BaselineMisses()
			cj.Records = r.Records
			cj.ElapsedCycles = r.ElapsedCycles
			cj.Instrs = r.Instrs
			cj.OverheadTotal = r.OverheadTraffic().Total()
			cj.FramesDecoded = r.Frames.Frames
			cj.FrameRecords = r.Frames.Records
		}
		if sr := c.Sampled; sr != nil && !sr.Exact {
			cj.Windows = len(sr.Windows)
			ci := sr.CI
			cj.CI = &ci
		}
		out.Cells = append(out.Cells, cj)
	}
	return json.Marshal(out)
}

// WriteJSON writes the matrix export, indented, to w.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteCSV writes one row per cell with the headline metrics to w.
func (m *Matrix) WriteCSV(w io.Writer) error {
	t := stats.NewTable("", "workload", "variant", "mode", "seed", "ipc", "mlp",
		"coverage", "full_coverage", "baseline_misses", "records", "wall_ms")
	for i := range m.Cells {
		c := &m.Cells[i]
		if c.Res == nil {
			continue
		}
		r := c.Res
		t.AddRow(c.Cell.Workload, c.Cell.Label, c.Cell.Mode.String(),
			fmt.Sprintf("%d", c.Cell.Config.Seed),
			fmt.Sprintf("%.4f", r.IPC), fmt.Sprintf("%.3f", r.MLP),
			fmt.Sprintf("%.4f", r.Coverage()), fmt.Sprintf("%.4f", r.FullCoverage()),
			fmt.Sprintf("%d", r.BaselineMisses()), fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%.1f", float64(c.Wall.Microseconds())/1000))
	}
	_, err := io.WriteString(w, t.CSV())
	return err
}
