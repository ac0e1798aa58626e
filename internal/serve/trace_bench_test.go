package serve

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/telemetry/span"
)

// benchSpec is the Figure-1 h=20% point every solve benchmark uses.
var benchSpec = core.Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.00015}

// TestUntracedSolveAllocBound pins the cost of the tracing instrumentation
// when no span is in the context (CLI paths, or requests whose trace was
// never started): the solveRunner path may add only a small constant number
// of allocations per solve over a bare prepared solve — the nil-span
// StartChild call sites — and nothing per fixed-point round (that part is
// pinned exactly by fixpoint's TestNilRoutedTraceAddsNoAllocations and the
// iteration-count independence asserted here).
//
// A solve here allocates a few MB, so a garbage collection lands in most
// readings and adds the runtime's own allocations to the count, ±1 per
// solve at random. With the collector paused (and run explicitly between
// readings) the counts are exact, so a few runs per reading suffice and
// keep the uncollected heap small.
func TestUntracedSolveAllocBound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(f func()) float64 {
		runtime.GC()
		return testing.AllocsPerRun(5, f)
	}
	measure := func(lambda float64) (bare, untraced float64) {
		spec := benchSpec
		spec.Lambda = lambda
		ps, err := core.Prepare(experiments.DefaultModel, spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Solve(spec.Lambda); err != nil {
			t.Fatal(err)
		}
		bare = allocs(func() {
			if _, err := ps.Solve(spec.Lambda); err != nil {
				t.Fatal(err)
			}
		})
		runner := newSolveRunner(context.Background(), core.NewPreparedSet(), experiments.DefaultModel, core.Options{})
		if _, err := runner.solve(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		untraced = allocs(func() {
			if _, err := runner.solve(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		})
		return bare, untraced
	}

	lightBare, lightUntraced := measure(0.00015)
	heavyBare, heavyUntraced := measure(0.00030)
	const maxOverhead = 8 // nil-span StartChild sites, independent of rounds
	for _, c := range []struct {
		name           string
		bare, untraced float64
	}{
		{"light-load", lightBare, lightUntraced},
		{"heavier-load", heavyBare, heavyUntraced},
	} {
		delta := c.untraced - c.bare
		if delta < 0 || delta > maxOverhead {
			t.Errorf("%s: untraced runner.solve adds %v allocs/solve over bare (%v vs %v), want 0..%d",
				c.name, delta, c.untraced, c.bare, maxOverhead)
		}
	}
	// The overhead must be a constant: if it scaled with the iteration
	// count, the span layer would be allocating per round.
	//lint:ignore floateq alloc counts are small integers; exact equality is the contract
	if lightDelta, heavyDelta := lightUntraced-lightBare, heavyUntraced-heavyBare; lightDelta != heavyDelta {
		t.Errorf("tracing alloc overhead varies with load: %v at light load, %v near saturation — per-round allocation leak",
			lightDelta, heavyDelta)
	}
}

// BenchmarkSolveTracing measures the request-path solve three ways: bare
// (a prepared solver, the pre-tracing baseline), untraced (the production
// solveRunner with no span in context — the <2% overhead acceptance bound
// applies to this pair), and traced (full span tree per solve, ring
// exporter, every round an event — the cost of a kept cache-miss trace).
func BenchmarkSolveTracing(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		ps, err := core.Prepare(experiments.DefaultModel, benchSpec, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Solve(benchSpec.Lambda); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("untraced", func(b *testing.B) {
		runner := newSolveRunner(context.Background(), core.NewPreparedSet(), experiments.DefaultModel, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.solve(context.Background(), benchSpec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		ring := span.NewRingExporter(4, nil)
		tr := span.New(span.Config{Exporter: ring, Seed: 1})
		runner := newSolveRunner(context.Background(), core.NewPreparedSet(), experiments.DefaultModel, core.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, root := tr.Start(context.Background(), "bench.solve")
			if _, err := runner.solve(ctx, benchSpec); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
	})
}
