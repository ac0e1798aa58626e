package serve

import (
	"sync"
	"testing"

	"kncube/internal/telemetry"
)

// TestMetricHandlesResolvedOnce: once a series has been recorded, recording
// it again builds no label map and no bucket slice, and the values still
// land in the registry's series under the same names and labels.
func TestMetricHandlesResolvedOnce(t *testing.T) {
	s := New(Config{RuntimeMetricsInterval: -1})
	solves := solveCall{model: "hotspot-2d", counts: s.solvesTotal}
	record := func() {
		solves.count("ok")
		s.shedTotal.get("draining").Inc()
		s.batchItemsTotal.get([2]string{"uniform", "saturated"}).Inc()
		s.solveSeconds.Observe(1e-3)
		s.batchSeconds.Observe(1e-3)
		s.batchSize.Observe(16)
	}
	record()
	if n := testing.AllocsPerRun(100, record); n > 0 {
		t.Errorf("recording resolved series allocates %v times, want 0", n)
	}
	const calls = 102 // the warm-up, AllocsPerRun's own warm-up and 100 runs
	reg := s.Registry()
	for _, c := range []struct {
		name   string
		labels telemetry.Labels
	}{
		{"khs_serve_solves_total", telemetry.Labels{"model": "hotspot-2d", "outcome": "ok"}},
		{"khs_serve_shed_total", telemetry.Labels{"reason": "draining"}},
		{"khs_serve_batch_items_total", telemetry.Labels{"model": "uniform", "outcome": "saturated"}},
	} {
		if n := reg.Counter(c.name, "", c.labels).Value(); n != calls {
			t.Errorf("%s%v = %d, want %d", c.name, c.labels, n, calls)
		}
	}
	for _, name := range []string{"khs_serve_solve_seconds", "khs_serve_batch_seconds", "khs_serve_batch_size"} {
		if n := reg.Histogram(name, "", nil, nil).Count(); n != calls {
			t.Errorf("%s count = %d, want %d", name, n, calls)
		}
	}
}

// TestCounterCacheConcurrentFirstUse: goroutines racing to record the same
// new series all land in one counter.
func TestCounterCacheConcurrentFirstUse(t *testing.T) {
	s := New(Config{RuntimeMetricsInterval: -1})
	const goroutines, each = 8, 50
	outcomes := []string{"ok", "saturated", "cancelled"}
	solves := solveCall{model: "ndim", counts: s.solvesTotal}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				solves.count(outcomes[i%len(outcomes)])
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, o := range outcomes {
		total += s.Registry().Counter("khs_serve_solves_total", "",
			telemetry.Labels{"model": "ndim", "outcome": o}).Value()
	}
	if total != goroutines*each {
		t.Errorf("counted %d solves, want %d", total, goroutines*each)
	}
}
