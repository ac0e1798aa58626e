package serve

import (
	"net/http"
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

// TestSurfaceModeRefusalsCountedAlike: a surface-mode spec with no surface
// counts the same outcome whether it is sent to /v1/solve (409 for a shape
// this replica owns, 421 for a foreign one) or as a /v1/solve:batch item,
// so the khs_serve_solves_total and khs_serve_batch_items_total families
// agree outcome for outcome.
func TestSurfaceModeRefusalsCountedAlike(t *testing.T) {
	self, peers := "replica-a", []string{"replica-a", "replica-b"}
	ownedK, foreignK := splitShapes(t, self, peers)
	s := New(Config{ShardID: self, ShardPeers: peers, RuntimeMetricsInterval: -1})
	h := s.Handler()
	opts := &SolveOptions{Mode: ModeSurface}
	for k, code := range map[int]int{ownedK: http.StatusConflict, foreignK: http.StatusMisdirectedRequest} {
		spec := BatchSpec{K: k, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4}
		solve := SolveRequest{K: spec.K, V: spec.V, Lm: spec.Lm, H: spec.H, Lambda: spec.Lambda, Options: opts}
		if rr := postJSON(t, h, "/v1/solve", solve); rr.Code != code {
			t.Errorf("K=%d: /v1/solve status %d, want %d", k, rr.Code, code)
		}
		resp := decodeBody[BatchSolveResponse](t, postJSON(t, h, "/v1/solve:batch",
			BatchSolveRequest{Options: opts, Items: []BatchSpec{spec}}))
		if len(resp.Items) != 1 || resp.Items[0].Status != "error" {
			t.Errorf("K=%d: batch items %+v, want one error", k, resp.Items)
		}
	}
	reg := s.Registry()
	for _, outcome := range []string{"ok", "saturated", "cancelled", "invalid", "error"} {
		labels := telemetry.Labels{"model": "hotspot-2d", "outcome": outcome}
		solves := reg.Counter("khs_serve_solves_total", "", labels).Value()
		items := reg.Counter("khs_serve_batch_items_total", "", labels).Value()
		want := int64(0)
		if outcome == "error" {
			want = 2
		}
		if solves != want || items != want {
			t.Errorf("outcome %s: %d solves, %d batch items, want %d of each", outcome, solves, items, want)
		}
	}
}
