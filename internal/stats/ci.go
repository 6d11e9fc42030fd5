package stats

// Confidence intervals for sampled simulation. The sampling scheduler
// (sim.Sample) treats each time-window as one stratum and
// reports every metric with a Student-t interval over the window
// estimates — the SMARTS-style error model (Wunderlich et al.,
// ISCA'03). Only the t quantile is approximated (regularized
// incomplete beta + bisection, good to ~1e-8); everything else is
// closed-form.

import (
	"fmt"
	"math"
	"sort"
)

// CI is a two-sided confidence interval around a mean.
type CI struct {
	Mean  float64 `json:"mean"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"` // e.g. 0.95
	N     int     `json:"n"`     // strata (windows) the interval is built from
}

// HalfWidth returns the interval's half-width (zero for N < 2, where
// no spread can be estimated).
func (c CI) HalfWidth() float64 { return (c.Hi - c.Lo) / 2 }

// Contains reports whether v lies inside the interval (inclusive).
func (c CI) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// RelErr returns the half-width as a fraction of the mean magnitude
// (zero when the mean is zero).
func (c CI) RelErr() float64 {
	if c.Mean == 0 {
		return 0
	}
	return c.HalfWidth() / math.Abs(c.Mean)
}

func (c CI) String() string {
	return fmt.Sprintf("%.4g ± %.2g (%g%% CI, n=%d)", c.Mean, c.HalfWidth(), c.Level*100, c.N)
}

// MeanCI returns the Student-t confidence interval for the mean of
// values at the given two-sided level (0 < level < 1). With fewer than
// two values the interval degenerates to the point estimate.
func MeanCI(values []float64, level float64) CI {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return StratifiedMean(values, w, level)
}

// StratifiedMean returns the weighted mean of per-stratum estimates
// with a Student-t confidence interval. values[i] is stratum i's
// estimate and weights[i] its size (records, cycles — any consistent
// measure); the mean is Σwᵢxᵢ/Σwᵢ, so ratio metrics averaged with
// their denominators as weights reproduce the exact ratio-of-sums.
//
// The standard error uses the weighted-mean linearization
// SE² = n/(n−1) · Σ uᵢ²(xᵢ − m)², with uᵢ = wᵢ/Σw, which reduces to
// the classic s/√n for equal weights. Degrees of freedom are n−1.
func StratifiedMean(values, weights []float64, level float64) CI {
	if len(values) != len(weights) {
		panic("stats: StratifiedMean values/weights length mismatch")
	}
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("stats: confidence level %g outside (0,1)", level))
	}
	n := len(values)
	ci := CI{Level: level, N: n}
	if n == 0 {
		return ci
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: StratifiedMean negative weight")
		}
		wsum += w
	}
	if wsum == 0 {
		// All-empty strata: the only defensible estimate is the plain
		// mean of the values with equal weights.
		return MeanCI(values, level)
	}
	var m float64
	for i, v := range values {
		m += weights[i] / wsum * v
	}
	ci.Mean = m
	ci.Lo, ci.Hi = m, m
	if n < 2 {
		return ci
	}
	var s2 float64
	for i, v := range values {
		u := weights[i] / wsum
		d := v - m
		s2 += u * u * d * d
	}
	se := math.Sqrt(float64(n) / float64(n-1) * s2)
	h := StudentT(level, n-1) * se
	ci.Lo, ci.Hi = m-h, m+h
	return ci
}

// StudentT returns the two-sided critical value t* of Student's t
// distribution with df degrees of freedom at the given confidence
// level: P(|T| ≤ t*) = level.
func StudentT(level float64, df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: StudentT df %d < 1", df))
	}
	if level <= 0 || level >= 1 {
		panic(fmt.Sprintf("stats: confidence level %g outside (0,1)", level))
	}
	// P(|T| ≤ t) = 1 − I_{df/(df+t²)}(df/2, 1/2); bisect t until the
	// CDF matches. The bracket doubles until it straddles the target
	// (heavy one-df tails need large t at high confidence).
	cdf := func(t float64) float64 {
		x := float64(df) / (float64(df) + t*t)
		return 1 - regIncBeta(float64(df)/2, 0.5, x)
	}
	lo, hi := 0.0, 2.0
	for cdf(hi) < level {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-10*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncBeta computes the regularized incomplete beta function
// I_x(a, b) via the Lentz continued fraction (Numerical Recipes form),
// using the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) for fast convergence.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	// ln of the prefactor x^a (1−x)^b / (a·B(a,b)).
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lbeta-la-lb+a*math.Log(x)+b*math.Log(1-x))*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// MedianOf returns the median of values (average of the middle pair
// for even counts). Used by the sampling tests to summarize CI widths
// robustly across seeds.
func MedianOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
