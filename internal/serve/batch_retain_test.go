package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// batchPrepares posts req as a traced batch solve and returns the items'
// statuses and the number of "core.prepare" spans in the request's trace:
// one per prepared topology shape.
func batchPrepares(t *testing.T, req BatchSolveRequest) ([]string, int) {
	t.Helper()
	h := New(Config{TraceSeed: 7, RuntimeMetricsInterval: -1}).Handler()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest("POST", "/v1/solve:batch", strings.NewReader(string(raw)))
	hr.Header.Set("traceparent", callerTraceparent)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, hr)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", rr.Code, rr.Body.String())
	}
	var statuses []string
	for _, it := range decodeBody[BatchSolveResponse](t, rr).Items {
		statuses = append(statuses, it.Status)
	}
	code, spans := getTrace(t, h, callerTraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", callerTraceID, code)
	}
	prepares := 0
	for _, sp := range spans {
		if sp.Name == "core.prepare" {
			prepares++
		}
	}
	return statuses, prepares
}

// TestBatchRepeatedShapesPrepareOnce: the items of a batch that revisit a
// topology shape reuse its prepared solver, so the request prepares once
// per distinct shape.
func TestBatchRepeatedShapesPrepareOnce(t *testing.T) {
	statuses, prepares := batchPrepares(t, batchRequest())
	for i, st := range statuses {
		if st != "ok" {
			t.Errorf("item %d: status %q, want ok", i, st)
		}
	}
	if prepares != 2 {
		t.Errorf("batch over 2 distinct shapes prepared %d times, want 2", prepares)
	}
}

// TestBatchRetainedStateIsBounded: a batch of many large distinct shapes
// keeps only as many prepared solvers as fit the core.PreparedSet bound of
// 2²¹ variables, counting each solver's state and its fixed-point
// workspace. A 600-radix torus holds about 0.36M state variables and as
// many again in its damped workspace, so every third shape drops the two
// before it; when the last shape comes back (at a new load, a cache miss)
// it is still held and is not prepared again, while the first shape has
// been dropped and is.
func TestBatchRetainedStateIsBounded(t *testing.T) {
	var req BatchSolveRequest
	for k := 600; k < 608; k++ {
		req.Items = append(req.Items, BatchSpec{K: k, V: 2, Lm: 32, H: 0.2, Lambda: 0.01})
	}
	req.Items = append(req.Items,
		BatchSpec{K: 607, V: 2, Lm: 32, H: 0.2, Lambda: 0.02},
		BatchSpec{K: 600, V: 2, Lm: 32, H: 0.2, Lambda: 0.02})
	statuses, prepares := batchPrepares(t, req)
	for i, st := range statuses {
		if st != "saturated" {
			t.Errorf("item %d: status %q, want saturated", i, st)
		}
	}
	if prepares != 9 {
		t.Errorf("batch prepared %d times, want 9 (8 shapes, the first again after eviction)", prepares)
	}
}
