// Package stats provides the statistics machinery used by the flit-level
// simulator: numerically-stable running moments (Welford), confidence
// intervals, batch-means steady-state analysis, and latency histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean, and variance of a stream of observations
// using Welford's algorithm. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Count returns the number of observations.
func (r *Running) Count() int64 { return r.n }

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation (0 if empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation (0 if empty).
func (r *Running) Max() float64 { return r.max }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval for
// the mean (normal approximation, z = 1.96).
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// Merge folds another accumulator into r (parallel Welford combination).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	r.mean += delta * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// FromMoments reconstructs an accumulator from summary moments: n
// observations with the given mean and unbiased sample variance. The
// individual observations are gone, so Min/Max report the mean; the
// reconstructed accumulator merges exactly (Merge) with others built the
// same way, which is how the sweep engine pools independent replications.
func FromMoments(n int64, mean, variance float64) Running {
	if n <= 0 {
		return Running{}
	}
	r := Running{n: n, mean: mean, min: mean, max: mean}
	if n > 1 && variance > 0 {
		r.m2 = variance * float64(n-1)
	}
	return r
}

// PooledMean combines independent replication summaries — per-replication
// observation counts, sample means, and 95% CI half-widths (as reported by
// the simulator) — into one pooled mean and CI. The per-replication
// variance is recovered from the CI half-width (ci = 1.96·sd/√n) and the
// summaries are merged with the parallel Welford combination, so the pooled
// mean is the observation-weighted mean and the pooled CI reflects both
// within- and between-replication spread. Slices must have equal length;
// empty input yields zeros.
func PooledMean(counts []int64, means, ci95s []float64) (mean, ci95 float64, n int64) {
	var acc Running
	for i, c := range counts {
		variance := 0.0
		if c > 1 {
			sd := ci95s[i] * math.Sqrt(float64(c)) / 1.96
			variance = sd * sd
		}
		rep := FromMoments(c, means[i], variance)
		acc.Merge(&rep)
	}
	return acc.Mean(), acc.CI95(), acc.Count()
}

// String implements fmt.Stringer.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g [%.4g, %.4g]",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// BatchMeans detects steady state with the method the paper's Section 4
// describes informally ("run until a further increase in simulated cycles
// does not change the collected statistics appreciably"): observations are
// grouped into fixed-size batches and the run is declared steady once the
// means of the most recent Window batches all lie within RelTol of their
// common average.
type BatchMeans struct {
	// BatchSize is the number of observations per batch.
	BatchSize int
	// Window is how many trailing batch means must agree.
	Window int
	// RelTol is the allowed relative deviation of each trailing batch mean
	// from the window average.
	RelTol float64

	cur   Running
	means []float64
}

// NewBatchMeans returns a detector with the given parameters, each of
// which must be positive.
func NewBatchMeans(batchSize, window int, relTol float64) *BatchMeans {
	if batchSize < 1 || window < 1 || !(relTol > 0) {
		panic(fmt.Sprintf("stats: NewBatchMeans(%d, %d, %v): parameters must be positive", batchSize, window, relTol))
	}
	return &BatchMeans{BatchSize: batchSize, Window: window, RelTol: relTol}
}

// Add records an observation and returns true when it completed a batch.
func (b *BatchMeans) Add(x float64) bool {
	b.cur.Add(x)
	if int(b.cur.Count()) >= b.BatchSize {
		b.means = append(b.means, b.cur.Mean()) //lint:ignore hotalloc one append per completed batch (thousands of cycles), amortized
		b.cur = Running{}
		return true
	}
	return false
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.means) }

// BatchMeansSlice returns a copy of the completed batch means.
func (b *BatchMeans) BatchMeansSlice() []float64 {
	out := make([]float64, len(b.means))
	copy(out, b.means)
	return out
}

// Steady reports whether the trailing Window batch means agree to within
// RelTol of their average.
func (b *BatchMeans) Steady() bool {
	if len(b.means) < b.Window {
		return false
	}
	tail := b.means[len(b.means)-b.Window:]
	avg := 0.0
	for _, m := range tail {
		avg += m
	}
	avg /= float64(len(tail))
	if IsZero(avg) {
		return true
	}
	for _, m := range tail {
		if math.Abs(m-avg) > b.RelTol*math.Abs(avg) {
			return false
		}
	}
	return true
}

// SteadyMean returns the average of the trailing Window batch means; call
// only after Steady() reports true or when the run budget is exhausted.
func (b *BatchMeans) SteadyMean() float64 {
	if len(b.means) == 0 {
		return b.cur.Mean()
	}
	w := b.Window
	if w > len(b.means) {
		w = len(b.means)
	}
	tail := b.means[len(b.means)-w:]
	avg := 0.0
	for _, m := range tail {
		avg += m
	}
	return avg / float64(len(tail))
}

// Histogram is a fixed-width bucket histogram for latency distributions.
type Histogram struct {
	Width   float64 // bucket width (> 0)
	buckets []int64
	n       int64
	sum     float64
}

// NewHistogram returns a histogram with the given bucket width.
func NewHistogram(width float64) *Histogram {
	if width <= 0 {
		width = 1
	}
	return &Histogram{Width: width}
}

// Add records one non-negative observation.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	idx := int(x / h.Width)
	for idx >= len(h.buckets) {
		h.buckets = append(h.buckets, 0) //lint:ignore hotalloc histogram widens to the largest observed latency once, then stays flat
	}
	h.buckets[idx]++
	h.n++
	h.sum += x
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the exact mean of the recorded observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) using the
// bucket right edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return float64(i+1) * h.Width
		}
	}
	return float64(len(h.buckets)) * h.Width
}

// Median is Quantile(0.5).
func (h *Histogram) Median() float64 { return h.Quantile(0.5) }

// ForEachBucket visits every non-empty bucket in increasing order, passing
// its right edge and count. Exporters (e.g. the telemetry collector) use it
// to fold the histogram into coarser fixed-bound schemes without access to
// the raw observations.
func (h *Histogram) ForEachBucket(f func(upper float64, count int64)) {
	for i, c := range h.buckets {
		if c > 0 {
			f(float64(i+1)*h.Width, c)
		}
	}
}

// ApproxEqual reports whether a and b agree to within the combined
// tolerance |a-b| <= abs + rel*max(|a|, |b|). It is the sanctioned way to
// compare floating-point results in this repo (the floateq analyzer flags
// raw == and !=): NaN compares equal to nothing, and infinities compare
// equal only to themselves.
func ApproxEqual(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return math.Abs(a-b) <= abs+rel*m
}

// IsZero reports whether x is exactly zero. Exact float comparison is
// banned in this repo (the floateq analyzer), but exact zero is
// legitimately special in two idioms — an unset (zero-value) config field
// selecting defaults, and a zero-load/zero-denominator guard picking a
// degenerate branch. IsZero names that intent; anything tolerance-shaped
// belongs in ApproxEqual instead.
func IsZero(x float64) bool { return x == 0 }

// MeanOf returns the arithmetic mean of xs (0 for an empty slice).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MedianOf returns the median of xs (0 for an empty slice); xs is not
// modified.
func MedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// QuantileOf returns the q-quantile of xs (0 <= q <= 1, 0 for an empty
// slice), interpolating linearly between the order statistics around
// position q·(n-1); xs is not modified.
func QuantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}
