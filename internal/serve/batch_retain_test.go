package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// batchPrepares posts req to h as a batch solve traced under traceID and
// returns the items' statuses and the number of "core.prepare" spans in
// the request's trace: one per solver the request had to prepare because
// the server's pool held no idle one of the shape.
func batchPrepares(t *testing.T, h http.Handler, req BatchSolveRequest, traceID string) ([]string, int) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest("POST", "/v1/solve:batch", strings.NewReader(string(raw)))
	hr.Header.Set("traceparent", "00-"+traceID+"-"+callerSpanID+"-01")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, hr)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", rr.Code, rr.Body.String())
	}
	var statuses []string
	for _, it := range decodeBody[BatchSolveResponse](t, rr).Items {
		statuses = append(statuses, it.Status)
	}
	code, spans := getTrace(t, h, traceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", traceID, code)
	}
	prepares := 0
	for _, sp := range spans {
		if sp.Name == "core.prepare" {
			prepares++
		}
	}
	return statuses, prepares
}

// laterTraceID names the trace of a second request to one server.
const laterTraceID = "5c0ffee0000000000000000000000001"

// TestBatchRepeatedShapesPrepareOnce: the items of a batch that revisit a
// topology shape reuse its prepared solver, so the first request prepares
// once per distinct shape; a later request that meets the same shapes at
// new loads (cache misses, every one solved) checks the solvers out of
// the server's pool and prepares nothing.
func TestBatchRepeatedShapesPrepareOnce(t *testing.T) {
	h := New(Config{TraceSeed: 7, RuntimeMetricsInterval: -1}).Handler()
	statuses, prepares := batchPrepares(t, h, batchRequest(), callerTraceID)
	for i, st := range statuses {
		if st != "ok" {
			t.Errorf("item %d: status %q, want ok", i, st)
		}
	}
	if prepares != 2 {
		t.Errorf("batch over 2 distinct shapes prepared %d times, want 2", prepares)
	}
	later := batchRequest()
	for i := range later.Items {
		later.Items[i].Lambda *= 0.9
	}
	statuses, prepares = batchPrepares(t, h, later, laterTraceID)
	for i, st := range statuses {
		if st != "ok" {
			t.Errorf("later item %d: status %q, want ok", i, st)
		}
	}
	if prepares != 0 {
		t.Errorf("a later batch over the same 2 shapes prepared %d times, want 0", prepares)
	}
}

// TestBatchAlternatingLargeShapesPrepareOnce: two large shapes that a batch
// alternates stay prepared together. A solver counts what it holds, so
// two Anderson hotspot-2d tori of K = 300 and 301 fit the pool's bound,
// where the old prediction of 18 times the state dropped one on every
// alternation and prepared all four items.
func TestBatchAlternatingLargeShapesPrepareOnce(t *testing.T) {
	h := New(Config{TraceSeed: 7, RuntimeMetricsInterval: -1}).Handler()
	var req BatchSolveRequest
	for i, k := range []int{300, 301, 300, 301} {
		req.Items = append(req.Items, BatchSpec{K: k, V: 2, Lm: 32, H: 0.2, Lambda: float64(i+1) * 2.5e-7})
	}
	statuses, prepares := batchPrepares(t, h, req, callerTraceID)
	for i, st := range statuses {
		if st != "ok" {
			t.Errorf("item %d: status %q, want ok", i, st)
		}
	}
	if prepares != 2 {
		t.Errorf("batch alternating 2 shapes prepared %d times, want 2", prepares)
	}
}

// TestBatchRetainedStateIsBounded: a batch of many large distinct shapes
// keeps only as many idle solvers as fit the pool's bound, counting each
// solver's state, its fixed-point workspace as grown and its model's
// scratch, and evicts the least recently returned first. A 600-radix
// torus holds about 0.36M state variables, and its saturated solve grows
// an Anderson workspace of seven state vectors before the first round
// refuses, so with the model's 3·K² floats about 32 MB: two such solvers
// fit and each further shape evicts the oldest. When the last shape comes
// back (at a new load, a cache miss) it is still held and is not prepared
// again, while the first shape has been evicted and is.
func TestBatchRetainedStateIsBounded(t *testing.T) {
	s := New(Config{TraceSeed: 7, RuntimeMetricsInterval: -1})
	var req BatchSolveRequest
	for k := 600; k < 608; k++ {
		req.Items = append(req.Items, BatchSpec{K: k, V: 2, Lm: 32, H: 0.2, Lambda: 0.01})
	}
	req.Items = append(req.Items,
		BatchSpec{K: 607, V: 2, Lm: 32, H: 0.2, Lambda: 0.02},
		BatchSpec{K: 600, V: 2, Lm: 32, H: 0.2, Lambda: 0.02})
	statuses, prepares := batchPrepares(t, s.Handler(), req, callerTraceID)
	for i, st := range statuses {
		if st != "saturated" {
			t.Errorf("item %d: status %q, want saturated", i, st)
		}
	}
	if prepares != 9 {
		t.Errorf("batch prepared %d times, want 9 (8 shapes, the first again after eviction)", prepares)
	}
	if idle := s.prepared.IdleBytes(); idle > 64<<20 || idle < 48<<20 {
		t.Errorf("the pool holds %d idle bytes, want the two last shapes' (about 64 MB, within the 64 MiB bound)", idle)
	}
}
