package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(12345)
	b := NewSplitMix64(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("value %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestRandDeterministicAcrossSeeds(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sequences diverged at %d", i)
		}
	}
	c := New(8)
	same := 0
	a = New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values of 1000", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: count %d deviates more than 10%% from %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestBoolBias(t *testing.T) {
	r := New(5)
	for _, p := range []float64{0, 0.125, 0.5, 0.9, 1} {
		hits := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v): observed %v", p, got)
		}
	}
}

func TestParetoBounds(t *testing.T) {
	r := New(21)
	f := func(seed uint16) bool {
		v := r.Pareto(1.1, 2, 2000)
		return v >= 2 && v <= 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := New(22)
	const n = 100000
	small, large := 0, 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1.0, 2, 10000)
		if v < 10 {
			small++
		}
		if v > 1000 {
			large++
		}
	}
	if small < n/2 {
		t.Errorf("expected most samples near the minimum, got %d/%d below 10", small, n)
	}
	if large == 0 {
		t.Error("expected a heavy tail, got no samples above 1000")
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(31)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	// With s=1, rank 0 vs rank 9 should be roughly 10:1.
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Errorf("rank0/rank9 ratio %v outside [5,20]", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(32)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		if c < n/10*85/100 || c > n/10*115/100 {
			t.Errorf("bucket %d: %d deviates from uniform %d", i, c, n/10)
		}
	}
}

func TestZipfSampleInRange(t *testing.T) {
	r := New(33)
	for _, n := range []int{1, 2, 7, 1000} {
		z := NewZipf(n, 0.7)
		for i := 0; i < 1000; i++ {
			if v := z.Sample(r); v < 0 || v >= n {
				t.Fatalf("sample %d out of [0,%d)", v, n)
			}
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestBernoulliMatchesBool pins Draw to Bool: the same decision for
// every 53-bit draw at and around the integer threshold, and the same
// draws consumed, including the no-draw cases p <= 0 and p >= 1.
func TestBernoulliMatchesBool(t *testing.T) {
	const one = 1 << 53
	for _, p := range []float64{
		-1, 0, 1, 2, // fixed: no draw
		1e-17,           // p·2^53 < 1: only the zero draw hits
		1 - 1.0/one,     // largest p below 1
		0.5, 0.25, 0.75, // p·2^53 an integer
		3.0 / one, (one - 2.0) / one,
		0.125, 1.0 / 3, 0.01, 0.95,
		math.NaN(), // Bool draws and never hits
	} {
		b := NewBernoulli(p)
		if !b.fixed {
			for _, x := range []uint64{0, 1, b.t - 2, b.t - 1, b.t, b.t + 1, one - 1} {
				if x >= one {
					continue
				}
				if want, got := float64(x)/one < p, x < b.t; got != want {
					t.Errorf("p=%g draw %d: threshold %d says %v, Bool %v", p, x, b.t, got, want)
				}
			}
		}
		r1, r2 := New(99), New(99)
		for i := 0; i < 10_000; i++ {
			if got, want := r1.Draw(b), r2.Bool(p); got != want {
				t.Fatalf("p=%g step %d: Draw %v, Bool %v", p, i, got, want)
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("p=%g: Draw and Bool consumed different draws", p)
		}
	}
}
