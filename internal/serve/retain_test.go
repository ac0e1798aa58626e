package serve

import (
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"kncube/internal/core"
)

// footprintBatch is a 16-item hotspot-2d batch in the shape of the
// serve-batch benchmark: one load from each sixteenth of [0.02, 1]·5.6e-4,
// the variant's load axis up to its saturation frontier.
func footprintBatch() BatchSolveRequest {
	req := BatchSolveRequest{Model: "hotspot-2d"}
	const lamMax, items = 5.6e-4, 16
	for j := 0; j < items; j++ {
		lam := lamMax * (0.02 + 0.98*(float64(j)+0.5)/items)
		req.Items = append(req.Items, BatchSpec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: lam})
	}
	return req
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedTraceFootprint bounds what the trace ring holds per kept
// trace: 64 seeded 16-item batch traces (each a root, an admission span and
// per item a solve and a fixpoint.solve span with its rounds, plus one
// prepare) retained by the server's RingExporter must cost at most 12 kB of
// live heap each. The cache retains nothing here (CacheSize < 0), so the
// delta is the ring's.
func TestRetainedTraceFootprint(t *testing.T) {
	s := New(Config{CacheSize: -1, TraceSeed: 7, RuntimeMetricsInterval: -1})
	h := s.Handler()
	req := footprintBatch()
	post := func() {
		rr := postJSON(t, h, "/v1/solve:batch", req)
		if rr.Code != http.StatusOK {
			t.Fatalf("batch status = %d, body %s", rr.Code, rr.Body.String())
		}
	}
	post() // resolve the lazily built metric series before the baseline
	before := liveHeap()
	const traces = 64
	for i := 0; i < traces; i++ {
		post()
	}
	after := liveHeap()
	if n := s.traces.Len(); n != traces+1 {
		t.Fatalf("ring retains %d traces, want %d", n, traces+1)
	}
	perTrace := (float64(after) - float64(before)) / traces
	t.Logf("retained %.0f B per 16-item batch trace", perTrace)
	if perTrace > 12<<10 {
		t.Errorf("retained %.0f B per 16-item batch trace, want <= 12 kB", perTrace)
	}
	runtime.KeepAlive(s)
}

// TestCacheHitAnswersMissResult: an entry holds the wire result its miss
// leader answered with, so a later hit — on either route — answers the
// same result, and that result is the solver's.
func TestCacheHitAnswersMissResult(t *testing.T) {
	h := New(Config{}).Handler()
	req := figureRequest()
	spec := core.Spec{K: req.K, V: req.V, Lm: req.Lm, H: req.H, Lambda: req.Lambda}
	res, err := core.Solve("hotspot-2d", spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := toAPIResult(res)

	miss := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", req))
	hit := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", req))
	batch := decodeBody[BatchSolveResponse](t, postJSON(t, h, "/v1/solve:batch", BatchSolveRequest{
		Items: []BatchSpec{{K: req.K, V: req.V, Lm: req.Lm, H: req.H, Lambda: req.Lambda}}}))
	if len(batch.Items) != 1 {
		t.Fatalf("batch answered %d items, want 1", len(batch.Items))
	}
	for _, got := range []struct {
		name, cache, want string
		res               *SolveResult
	}{
		{"/v1/solve miss", miss.Cache, cacheMiss, miss.Result},
		{"/v1/solve hit", hit.Cache, cacheHit, hit.Result},
		{"batch hit", batch.Items[0].Cache, cacheHit, batch.Items[0].Result},
	} {
		if got.cache != got.want || !reflect.DeepEqual(got.res, want) {
			t.Errorf("%s: cache %q, result %+v; want %q answering %+v", got.name, got.cache, got.res, got.want, want)
		}
	}
}
