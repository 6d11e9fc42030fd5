package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if math.Abs(m.Value()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", m.Value())
	}
	// Sample std dev of that classic set is ~2.138.
	if math.Abs(m.StdDev()-2.138089935299395) > 1e-9 {
		t.Errorf("stddev = %v", m.StdDev())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.Variance() != 0 {
		t.Error("empty mean should be zero-valued")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %v", got)
	}
	if got := GeoMean([]float64{4, 4, 4}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean(4,4,4) = %v", got)
	}
	// Non-positive entries are ignored.
	if got := GeoMean([]float64{0, -3, 8, 2}); math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean with non-positives = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) wrong")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(1024)
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if got := h.MeanValue(); math.Abs(got-206) > 1e-9 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(10) // bucket [8,16)
	}
	h.Add(100000)
	q := h.Quantile(0.5)
	if q < 10 || q > 15 {
		t.Errorf("median bound %d not in [10,15]", q)
	}
	if h.Quantile(1.0) < 100000 {
		t.Errorf("max quantile %d too small", h.Quantile(1.0))
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	r := uint64(12345)
	for i := 0; i < 1000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		h.Add(r >> 40)
	}
	prev := uint64(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestCDFWeighted(t *testing.T) {
	var c CDF
	c.Add(10, 1)
	c.Add(20, 3)
	if got := c.At(10); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("At(10) = %v, want 0.25", got)
	}
	if got := c.At(20); got != 1 {
		t.Errorf("At(20) = %v, want 1", got)
	}
	if got := c.At(5); got != 0 {
		t.Errorf("At(5) = %v, want 0", got)
	}
	if q := c.Quantile(0.5); q != 20 {
		t.Errorf("Quantile(0.5) = %v, want 20", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(vals []float64) bool {
		var c CDF
		for _, v := range vals {
			c.Add(math.Abs(v), 1)
		}
		if c.N() == 0 {
			return true
		}
		xs := []float64{0, 1, 10, 100, 1e6, 1e12}
		prev := -1.0
		for _, x := range xs {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("beta", "x")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `q"r`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("comma not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"q""r"`) {
		t.Errorf("quote not escaped: %s", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		42.42:   "42.4",
		3.14159: "3.14",
		0.012:   "0.012",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.421); got != "42.1%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestCDFJSONRoundTrip(t *testing.T) {
	var c CDF
	for i := 0; i < 100; i++ {
		// Awkward floats: exact round-tripping must survive values that
		// have no short decimal form.
		c.Add(math.Sqrt(float64(i))*1e-3, 1/(float64(i)+0.1))
	}
	c.Quantile(0.5) // force the sorted state so it must ride the wire

	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back CDF
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&c, &back) {
		t.Fatalf("CDF not identical after JSON round trip:\n got %+v\nwant %+v", back, c)
	}
	// A second hop must also be byte-identical (canonical encoding).
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", b, b2)
	}

	// The zero CDF round-trips to the zero CDF (nil slices preserved).
	var zero, zback CDF
	zb, _ := json.Marshal(&zero)
	if err := json.Unmarshal(zb, &zback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&zero, &zback) {
		t.Fatalf("zero CDF round trip: got %+v", zback)
	}
}

func TestCDFClone(t *testing.T) {
	var zero CDF
	if z := zero.Clone(); !reflect.DeepEqual(z, &zero) {
		t.Fatalf("zero CDF clone: got %+v", *z)
	}
	for _, sorted := range []bool{false, true} {
		var c CDF
		for i := 0; i < 5; i++ {
			c.Add(float64(5-i), float64(i+1))
		}
		if sorted {
			c.Quantile(0.5)
		}
		d := c.Clone()
		want, _ := json.Marshal(&c)
		got, _ := json.Marshal(d)
		if string(got) != string(want) {
			t.Fatalf("sorted=%v: clone encodes differently:\n%s\nvs\n%s", sorted, got, want)
		}
		if cap(d.vals) != len(d.vals) || cap(d.weights) != len(d.weights) {
			t.Fatalf("clone not exact-length: caps %d/%d for %d samples", cap(d.vals), cap(d.weights), len(d.vals))
		}
		// Samples added to the original stay out of the clone.
		c.vals[0], c.weights[0] = -1, -1
		c.Add(99, 99)
		if d.N() != 5 || d.vals[0] == -1 || d.weights[0] == -1 {
			t.Fatalf("sorted=%v: clone shares memory with the original: %+v", sorted, *d)
		}
	}
}

func TestCDFJSONLengthMismatch(t *testing.T) {
	var c CDF
	if err := json.Unmarshal([]byte(`{"vals":[1,2],"weights":[1]}`), &c); err == nil {
		t.Fatal("want error for vals/weights length mismatch")
	}
}
