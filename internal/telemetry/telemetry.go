// Package telemetry is the project's dependency-free observability toolkit:
// atomic counters, gauges and fixed-bucket histograms behind a named
// Registry with label support, exposed as Prometheus text or a JSON snapshot
// (expose.go); JSONL run manifests for the sweep engine (manifest.go); and
// pprof profiling hooks for the CLIs (profile.go). Fixed-point convergence
// traces are span events (package span, FixpointTrace).
//
// The hot-path recording operations — Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe/ObserveN — are allocation-free and safe for concurrent
// use; metric handles are resolved once through the Registry and then
// recorded against directly. Metric names follow the repo
// convention khs_<layer>_<name>_<unit> (DESIGN.md §7).
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// MetricType distinguishes the exposition behaviour of a metric.
type MetricType string

// The metric types known to the registry and the exposition formats.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing value. The zero value is usable but
// counters normally come from Registry.Counter so they appear in snapshots.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//khs:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters are monotone).
//
//khs:hotpath
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: Counter.Add with negative increment")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an arbitrary float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
//
//khs:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (lock-free compare-and-swap).
//
//khs:hotpath
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with the Prometheus
// less-or-equal convention: bucket i counts observations v <= bounds[i],
// plus an implicit +Inf overflow bucket. Bounds are fixed at construction;
// Observe is allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram returns a histogram over the given strictly-increasing
// finite upper bounds. Registry.Histogram is the usual constructor; this
// one serves tests and unregistered scratch histograms.
func NewHistogram(bounds []float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: non-finite histogram bound")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bounds not strictly increasing")
		}
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation.
//
//khs:hotpath
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations (used to fold pre-binned
// distributions, e.g. the simulator's latency histogram, into a metric).
//
//khs:hotpath
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the histogram's finite upper bounds (not a copy; callers
// must not modify it).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative bucket counts in bound order, the last
// entry being the +Inf bucket (== Count()).
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// atomicFloat is a lock-free float64 accumulator.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// LinearBuckets returns n strictly-increasing bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		panic("telemetry: LinearBuckets needs n >= 1 and width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns n bounds start, start*factor, start*factor², ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("telemetry: ExponentialBuckets needs n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
