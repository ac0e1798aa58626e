package telemetry

import (
	"kncube/internal/stats"
	"testing"
)

// BenchmarkTelemetryOverhead measures — and asserts — the cost of hot-path
// recording: every sub-benchmark first proves the operation is
// allocation-free (the contract the sim engine's instrumentation relies
// on), then times it.
func BenchmarkTelemetryOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("khs_bench_total", "", nil)
	g := r.Gauge("khs_bench_ratio", "", nil)
	h := r.Histogram("khs_bench_cycles", "", nil, ExponentialBuckets(1, 2, 16))

	assertAllocFree := func(b *testing.B, op func()) {
		b.Helper()
		if n := testing.AllocsPerRun(100, op); !stats.IsZero(n) {
			b.Fatalf("recording allocates %v objects/op, want 0", n)
		}
	}

	b.Run("counter", func(b *testing.B) {
		assertAllocFree(b, func() { c.Inc() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		assertAllocFree(b, func() { g.Set(1.5) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		assertAllocFree(b, func() { h.Observe(137) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i & 4095))
		}
	})
}

// TestRecordingAllocFree is the same contract as a plain test, so it runs
// under the ordinary tier-1 `go test ./...` (benchmarks do not).
func TestRecordingAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("khs_bench_total", "", nil)
	h := r.Histogram("khs_bench_cycles", "", nil, ExponentialBuckets(1, 2, 16))
	ops := map[string]func(){
		"counter-inc":        func() { c.Inc() },
		"counter-add":        func() { c.Add(3) },
		"histogram-observe":  func() { h.Observe(17) },
		"histogram-observen": func() { h.ObserveN(17, 5) },
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); !stats.IsZero(n) {
			t.Errorf("%s allocates %v objects/op, want 0", name, n)
		}
	}
}

// BenchmarkRegistryLookup times resolving an existing series, the way the
// server resolves its request counters and histograms on every request:
// by name and labels, not through a kept handle.
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	labels := Labels{"route": "POST /v1/solve", "code": "200"}
	bounds := ExponentialBuckets(1e-5, 4, 12)
	r.Counter("khs_bench_requests_total", "", labels)
	r.Histogram("khs_bench_solve_seconds", "", nil, bounds)
	b.Run("counter-2-labels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Counter("khs_bench_requests_total", "", labels).Inc()
		}
	})
	b.Run("histogram-no-labels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Histogram("khs_bench_solve_seconds", "", nil, bounds).Observe(1e-3)
		}
	})
}

// TestRegistryLookupAllocFree pins that resolving an existing series
// allocates nothing: names and labels are checked when a series is
// created, not on every lookup.
func TestRegistryLookupAllocFree(t *testing.T) {
	r := NewRegistry()
	labels := Labels{"route": "POST /v1/solve", "code": "200", "model": "hotspot-2d"}
	r.Counter("khs_lookup_total", "", labels)
	if n := testing.AllocsPerRun(100, func() { r.Counter("khs_lookup_total", "", labels).Inc() }); !stats.IsZero(n) {
		t.Errorf("looking up an existing counter allocates %v objects, want 0", n)
	}
}
