// Package stats provides the statistics utilities used across the
// simulator and the experiment harness: streaming mean/variance, geometric
// means, logarithmic histograms, weighted CDFs (for stream-length
// distributions), and plain-text table rendering for the per-figure output.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean is a streaming mean/variance accumulator (Welford's algorithm).
type Mean struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Value returns the sample mean (0 if empty).
func (m *Mean) Value() float64 { return m.mean }

// Variance returns the sample variance (0 if fewer than 2 samples).
func (m *Mean) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Variance()) }

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio returns a/b, or 0 when b is 0. Used pervasively for coverage and
// traffic normalization where an empty denominator means "no events".
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Histogram is a base-2 logarithmic histogram over uint64 values. Bucket i
// holds values in [2^(i-1), 2^i) with bucket 0 holding {0}.
type Histogram struct {
	buckets [65]uint64
	total   uint64
	sum     uint64
}

// Add records value v once.
func (h *Histogram) Add(v uint64) { h.AddN(v, 1) }

// AddN records value v, n times.
func (h *Histogram) AddN(v, n uint64) {
	h.buckets[bucketOf(v)] += n
	h.total += n
	h.sum += v * n
}

func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}

// Total returns the number of recorded values.
func (h *Histogram) Total() uint64 { return h.total }

// MeanValue returns the arithmetic mean of recorded values.
func (h *Histogram) MeanValue() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// top of the first bucket at which the cumulative count reaches q.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			if i >= 64 {
				return math.MaxUint64
			}
			// Bucket i holds values in [2^(i-1), 2^i); report the
			// inclusive upper bound.
			return 1<<uint(i) - 1
		}
	}
	return math.MaxUint64
}

// CDF is a weighted cumulative distribution over float64 values: each
// sample carries a weight (e.g., a stream of length L contributes L
// "streamed blocks" at value L for Figure 6 left).
type CDF struct {
	vals    []float64
	weights []float64
	sorted  bool
}

// Add records one sample with the given weight.
func (c *CDF) Add(value, weight float64) {
	c.vals = append(c.vals, value)
	c.weights = append(c.weights, weight)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.vals) }

// Clone returns a deep copy that shares no memory with c: the samples
// are copied to exact-length slices (nil stays nil) and the sorted flag
// is kept, so the clone encodes to the same JSON bytes as c.
func (c *CDF) Clone() *CDF {
	return &CDF{vals: cloneFloats(c.vals), weights: cloneFloats(c.weights), sorted: c.sorted}
}

func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append(make([]float64, 0, len(s)), s...)
}

// cdfJSON is the wire form of a CDF. The sorted flag rides along so a
// decoded CDF is field-for-field identical (reflect.DeepEqual) to the
// one encoded — the distributed lab ships whole Results structures
// between processes and asserts bit-identity on arrival.
type cdfJSON struct {
	Vals    []float64 `json:"vals"`
	Weights []float64 `json:"weights"`
	Sorted  bool      `json:"sorted,omitempty"`
}

// MarshalJSON encodes the CDF's samples and weights losslessly
// (float64 values round-trip exactly through encoding/json).
func (c *CDF) MarshalJSON() ([]byte, error) {
	return json.Marshal(cdfJSON{Vals: c.vals, Weights: c.weights, Sorted: c.sorted})
}

// UnmarshalJSON restores a CDF encoded by MarshalJSON.
func (c *CDF) UnmarshalJSON(b []byte) error {
	var w cdfJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Vals) != len(w.Weights) {
		return fmt.Errorf("stats: CDF with %d values but %d weights", len(w.Vals), len(w.Weights))
	}
	c.vals, c.weights, c.sorted = w.Vals, w.Weights, w.Sorted
	return nil
}

// Snapshot exposes the CDF's internal samples for checkpointing. The
// returned slices alias the CDF; callers must not mutate them.
func (c *CDF) Snapshot() (vals, weights []float64, sorted bool) {
	return c.vals, c.weights, c.sorted
}

// SetSnapshot replaces the CDF's samples (checkpoint restore). The CDF
// takes ownership of the slices.
func (c *CDF) SetSnapshot(vals, weights []float64, sorted bool) {
	c.vals, c.weights, c.sorted = vals, weights, sorted
}

func (c *CDF) sort() {
	if c.sorted {
		return
	}
	idx := make([]int, len(c.vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return c.vals[idx[a]] < c.vals[idx[b]] })
	v := make([]float64, len(c.vals))
	w := make([]float64, len(c.vals))
	for i, j := range idx {
		v[i], w[i] = c.vals[j], c.weights[j]
	}
	c.vals, c.weights = v, w
	c.sorted = true
}

// At returns the cumulative weight fraction of samples with value <= x.
func (c *CDF) At(x float64) float64 {
	c.sort()
	var total, cum float64
	for _, w := range c.weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	for i, v := range c.vals {
		if v > x {
			break
		}
		cum += c.weights[i]
	}
	return cum / total
}

// Quantile returns the smallest value v such that At(v) >= q.
func (c *CDF) Quantile(q float64) float64 {
	c.sort()
	var total float64
	for _, w := range c.weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	target := q * total
	var cum float64
	for i, v := range c.vals {
		cum += c.weights[i]
		if cum >= target {
			return v
		}
	}
	return c.vals[len(c.vals)-1]
}

// Points evaluates the CDF at each x in xs, returning fractions in [0,1].
func (c *CDF) Points(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = c.At(x)
	}
	return out
}

// Table is an aligned plain-text table with a title, used by every
// experiment to print the rows a paper figure or table reports.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: large values with no decimals,
// small ones with enough precision to be readable.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	case av >= 10:
		return fmt.Sprintf("%.1f", v)
	case av >= 0.095:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header row first).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = esc(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Pct formats a fraction as a percentage string ("42.0%").
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }
