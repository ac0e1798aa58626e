package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metric is one benchmark metric as BENCHMARK.json lists it. End-to-end
// metrics carry the bound by which a change may worsen them; per-layer
// metrics instead name the end-to-end metric they should move (Moves) and
// the workload on which they move it. Moves is "failed_ratio" for layers
// that show up as failed operations (the result line's failed/attempted),
// and "none" for metrics kept for visibility only.
type metric struct {
	Name, Unit, Better string
	Bound              float64
	Moves, Workload    string
}

// endToEnd are the metrics a user of the service or the figure harness
// sees. Every workload reports all of them.
var endToEnd = []metric{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// batchVariants are the registered model variants serve-batch cycles
// through; the per-variant solver metrics are suffixed with their names.
var batchVariants = []string{"bidirectional-2d", "hotspot-2d", "hypercube", "ndim", "uniform"}

// perLayer are the metrics of single layers, measured from outside by
// timing calls into each layer's exported functions (traced run) or by
// reading the server's own counters. A metric that does not apply to a
// workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	m := []metric{
		{"serve.handler_ms_p50", "ms", "lower", 0, "latency_p50_ms", "serve-surface"},
		{"serve.transport_ms_p50", "ms", "lower", 0, "latency_p50_ms", "serve-surface"},
		{"serve.shed_ratio", "ratio", "lower", 0, "failed_ratio", "serve-batch"},
		{"serve.resp_kb_per_op", "kB", "lower", 0, "ops_per_s", "serve-batch"},
		{"cache.hit_ratio", "ratio", "higher", 0, "ops_per_s", "serve-batch"},
		{"cache.coalesced_ratio", "ratio", "higher", 0, "ops_per_s", "serve-batch"},
		{"cache.evictions_per_op", "count", "lower", 0, "ops_per_s", "serve-batch"},
		{"surface.hit_ratio", "ratio", "higher", 0, "ops_per_s", "serve-surface"},
		{"surface.lookup_ns_p50", "ns", "lower", 0, "latency_p50_ms", "serve-surface"},
		{"surface.build_s", "s", "lower", 0, "setup_s", "serve-surface"},
		{"surface.rel_error_max", "ratio", "lower", 0, "none", "serve-surface"},
		{"core.prepare_ms_p50", "ms", "lower", 0, "ops_per_s", "serve-batch"},
		{"core.solve_ms_p50", "ms", "lower", 0, "ops_per_s", "serve-batch"},
		{"core.saturated_ratio", "ratio", "lower", 0, "ops_per_s", "serve-batch"},
		{"fixpoint.rounds_per_solve", "count", "lower", 0, "ops_per_s", "serve-batch"},
		{"fixpoint.us_per_round", "us", "lower", 0, "ops_per_s", "serve-batch"},
		{"fixpoint.accelerated_round_ratio", "ratio", "higher", 0, "ops_per_s", "serve-batch"},
	}
	for _, v := range batchVariants {
		m = append(m,
			metric{"core.solve_ms_p50." + v, "ms", "lower", 0, "ops_per_s", "serve-batch"},
			metric{"fixpoint.rounds_per_solve." + v, "count", "lower", 0, "ops_per_s", "serve-batch"},
			metric{"fixpoint.us_per_round." + v, "us", "lower", 0, "ops_per_s", "serve-batch"},
			metric{"fixpoint.accelerated_round_ratio." + v, "ratio", "higher", 0, "ops_per_s", "serve-batch"},
		)
	}
	return append(m,
		metric{"sweep.busy_ratio", "ratio", "higher", 0, "ops_per_s", "figures"},
		metric{"sweep.job_s_max", "s", "lower", 0, "ops_per_s", "figures"},
		metric{"sim.cycles_per_s", "1/s", "higher", 0, "ops_per_s", "figures"},
		metric{"sim.cycles_total", "count", "lower", 0, "ops_per_s", "figures"},
		metric{"sim.new_ms", "ms", "lower", 0, "setup_s", "figures"},
		metric{"runtime.alloc_kb_per_op", "kB", "lower", 0, "ops_per_s", "serve-surface"},
		metric{"runtime.gc_cpu_fraction", "ratio", "lower", 0, "ops_per_s", "serve-surface"},
		metric{"runtime.heap_live_mb", "MB", "lower", 0, "peak_rss_mb", "serve-batch"},
		metric{"trace.overhead_ratio", "ratio", "lower", 0, "none", "serve-surface"},
	)
}

// metricName is the charset BENCHMARK.json accepts for a metric or
// workload name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is sorted in place. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail, and
// tailCap the highest percentile reported: beyond p99 a run's slowest
// samples record the host's scheduling hiccups more than the program.
const (
	tailSamples = 10
	tailCap     = 99.0
)

// tail is the highest percentile of a sample, up to tailCap, that still
// has tailSamples samples beyond it, with the percentile it is and the
// sample count.
type tail struct {
	Value      float64
	Percentile float64
	N          int
}

// tailOf applies the tail rule to xs (sorted in place): with n samples
// the percentile is min(tailCap, 100·(n-tailSamples)/n), and the tail is
// the nearest-rank sample at it, so at least tailSamples samples lie
// beyond. With no more than tailSamples samples the rule cannot hold,
// and the maximum is reported as percentile 100.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	sort.Float64s(xs)
	if n <= tailSamples {
		return tail{Value: xs[n-1], Percentile: 100, N: n}
	}
	rank := min(n-tailSamples, int(math.Ceil(tailCap/100*float64(n)))) // 1-based
	return tail{Value: xs[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outcome is what one run measured: the operations it attempted and
// failed, every metric it produced, and whether the outputs checked out.
type outcome struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
}

func newOutcome() *outcome {
	return &outcome{correct: true, values: map[string]float64{}}
}

// fail counts n failed operations and marks the run incorrect.
func (o *outcome) fail(n int) {
	if n > 0 {
		o.failed += n
		o.correct = false
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the run's result as the final JSON line: every
// metric of the given set, 0 where the workload did not produce it.
func writeResult(w io.Writer, o *outcome, set []metric) error {
	line := resultLine{
		Correct:   o.correct,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v := o.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
