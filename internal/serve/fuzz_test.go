package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzSolveRequest drives POST /v1/solve and POST /v1/solve:batch through
// the full handler stack with arbitrary bodies. Invariants: the handler
// never panics and never answers 500; every 4xx body decodes as the API's
// ErrorResponse with a message; every 2xx body decodes as the route's
// response type. The one 5xx the API documents for a well-formed request,
// 504, answers a solve whose deadline expired — legitimate for any spec
// too slow for the server's request timeout, so it is allowed but must
// carry the error JSON too.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.00015}`},
		{false, `{"model":"uniform","k":8,"lm":16,"lambda":0.001,"options":{"acceleration":"anderson"}}`},
		{false, `{"model":"ndim","k":4,"dims":3,"v":2,"lm":8,"h":0.1,"lambda":0.001,"options":{"mode":"auto"}}`},
		{false, `{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.01}`}, // saturated
		{false, `{"k":1,"v":2,"lm":32,"h":0.2,"lambda":0.00015}`},
		{false, `{"k":16,"v":2,"lm":32,"h":1.5,"lambda":-1,"timeout_ms":-5}`},
		{false, `{"k":16,"options":{"entrance":"psychic","blocking":"?"}}`},
		{false, `{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.00015,"nope":1}`},
		{false, `{"model":"no-such-model"}`},
		{false, `{"k":"16"}`},
		{false, `{"k":16`},
		{false, `[]`},
		{false, `null`},
		{false, ``},
		{true, `{"items":[{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.00015},{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.01},{"k":0}]}`},
		{true, `{"model":"bidirectional-2d","options":{"mode":"surface"},"items":[{"k":8,"v":2,"lm":16,"h":0.1,"lambda":0.001}]}`},
		{true, `{"items":[]}`},
		{true, `{"items":null,"timeout_ms":-1}`},
		{true, `{"model":"hypercube","items":[{"k":2,"dims":40,"v":1,"lm":8,"lambda":0.001}]}`},
		{true, `{"items":[{"k":16}],"options":{"variance":"loud"}}`},
		// Specs that must be refused before any allocation: each of these
		// once exhausted memory inside the solver. The retired
		// anderson_window is now an unknown field.
		{false, `{"k":888816,"v":2,"lm":32,"h":0.2,"lambda":0.00015}`},
		{false, `{"k":16,"v":1000000000,"lm":32,"h":0.2,"lambda":0.00015}`},
		{false, `{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.00015,"options":{"acceleration":"anderson","anderson_window":1000000000}}`},
		{true, `{"model":"ndim","items":[{"k":1000000000,"dims":1,"v":2,"lm":8,"h":0.1,"lambda":1e-12}]}`},
	} {
		f.Add(seed.batch, []byte(seed.body))
	}

	s := New(Config{RequestTimeout: 2 * time.Second, RuntimeMetricsInterval: -1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/solve"
		if batch {
			path = "/v1/solve:batch"
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(body)))

		var into any = &SolveResponse{}
		if batch {
			into = &BatchSolveResponse{}
		}
		checkStructured(t, path, body, rr, http.StatusOK, into, http.StatusGatewayTimeout)
	})
}

// FuzzSweepRequest drives POST /v1/sweeps with arbitrary bodies under the
// FuzzSolveRequest invariants: no panic, no 500, every 4xx a structured
// ErrorResponse, and a 202 carrying the job's SweepStatus. An accepted job
// is cancelled and waited for, so no simulation outlives its input.
func FuzzSweepRequest(f *testing.F) {
	for _, seed := range []string{
		`{"panel":"fig1-h20","points":1,"budget":{"warmup_cycles":100,"max_cycles":2000,"min_measured":10}}`,
		`{"panel":"fig2-h70","model":"hotspot-2d","points":2,"reps":2,"jobs":2}`,
		`{"panel":"fig1-h20","jobs":33}`,
		`{"panel":"fig1-h20","budget":{"max_cycles":2400001}}`,
		`{"panel":"fig1-h20","budget":{"warmup_cycles":2000,"max_cycles":2000}}`,
		`{"panel":"fig1-h20","budget":{"min_measured":-1}}`,
		`{"panel":"fig1-h20","points":-1}`,
		`{"panel":"fig1-h20","model":"no-such-model"}`,
		`{"panel":"fig9-h99"}`,
		`{"panel":""}`,
		`{"panel":"fig1-h20","nope":1}`,
		`{"panel":1}`,
		`{"panel":"fig1-h20"`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{RuntimeMetricsInterval: -1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
		var st SweepStatus
		checkStructured(t, "/v1/sweeps", body, rr, http.StatusAccepted, &st)
		if rr.Code == http.StatusAccepted {
			cancelJob(t, s, st.ID)
		}
	})
}

// FuzzSurfaceRequest drives POST /v1/surfaces with arbitrary bodies under
// the FuzzSolveRequest invariants; an accepted build is cancelled and
// waited for.
func FuzzSurfaceRequest(f *testing.F) {
	for _, seed := range []string{
		`{"k":16,"v":2,"lm":32,"hs":[0.1,0.2,0.3],"lambdas":[5e-05,0.0001,0.00015,0.0002,0.00025,0.0003]}`,
		`{"model":"uniform","k":8,"v":2,"lm":16,"hs":[0],"lambdas":[0.001,0.002]}`,
		`{"model":"ndim","k":4,"dims":3,"v":2,"lm":8,"hs":[0.1],"lambdas":[0.001,0.002],"options":{"acceleration":"anderson"}}`,
		`{"k":16,"v":2,"lm":32,"hs":[0.2,0.1],"lambdas":[0.0001,0.0002]}`,
		`{"k":16,"v":2,"lm":32,"hs":[0.2],"lambdas":[0.0001]}`,
		`{"k":16,"v":2,"lm":32,"hs":[1.5],"lambdas":[-1,0]}`,
		`{"k":16,"v":2,"lm":32,"hs":[0.2],"lambdas":[0.0001,0.0002],"options":{"mode":"auto"}}`,
		`{"k":16,"v":2,"lm":32,"hs":[0.2],"lambdas":[0.0001,0.0002],"options":{"blocking":"wait-only"}}`,
		`{"model":"uniform","k":8,"lm":16,"hs":[0],"lambdas":[0.001,0.002],"options":{"entrance":"worst-case"}}`,
		`{"k":888816,"v":2,"lm":32,"hs":[0.2],"lambdas":[0.0001,0.0002]}`,
		`{"k":1,"hs":[],"lambdas":[]}`,
		`{"model":"no-such-model","hs":[0.1],"lambdas":[0.1,0.2]}`,
		`{"k":"16"}`,
		`{"k":16,"nope":1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{RuntimeMetricsInterval: -1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/surfaces", bytes.NewReader(body)))
		var st SurfaceStatus
		checkStructured(t, "/v1/surfaces", body, rr, http.StatusAccepted, &st)
		if rr.Code == http.StatusAccepted {
			cancelJob(t, s, st.ID)
		}
	})
}

// checkStructured enforces the decoder fuzz invariants on one response: a
// success status ok whose body decodes as into, or a 4xx (or one of the
// documented also codes) whose body is the API's ErrorResponse with a
// message. Anything else — a 500 above all — fails the test.
func checkStructured(t *testing.T, path string, body []byte, rr *httptest.ResponseRecorder, ok int, into any, also ...int) {
	t.Helper()
	switch code := rr.Code; {
	case code == ok:
	case code >= 400 && code < 500, slices.Contains(also, code):
		into = &ErrorResponse{}
	default:
		t.Fatalf("%s answered %d for %q: %s", path, code, body, rr.Body.String())
	}
	dec := json.NewDecoder(strings.NewReader(rr.Body.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("%s %d: body does not decode as %T: %v\n%s", path, rr.Code, into, err, rr.Body.String())
	}
	if e, isErr := into.(*ErrorResponse); isErr && e.Error == "" {
		t.Errorf("%s %d: error body without a message: %s", path, rr.Code, rr.Body.String())
	}
}

// cancelJob cancels an accepted async job and waits for it to finish.
func cancelJob(t *testing.T, s *Server, id string) {
	t.Helper()
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("accepted job %q is not in the store", id)
	}
	j.cancel()
	<-j.finished
}

// TestRequestTimeoutCannotOverflow: a timeout_ms too large for
// time.Duration is capped at the server's request timeout like any other
// long request, not wrapped into an already-expired deadline (which
// answered 504 without solving).
func TestRequestTimeoutCannotOverflow(t *testing.T) {
	h := New(Config{RuntimeMetricsInterval: -1}).Handler()
	req := figureRequest()
	req.TimeoutMS = math.MaxInt64
	if rr := postJSON(t, h, "/v1/solve", req); rr.Code != http.StatusOK {
		t.Errorf("solve with timeout_ms=MaxInt64: %d %s", rr.Code, rr.Body.String())
	}
	batch := BatchSolveRequest{TimeoutMS: math.MaxInt64,
		Items: []BatchSpec{{K: req.K, V: req.V, Lm: req.Lm, H: req.H, Lambda: req.Lambda}}}
	if rr := postJSON(t, h, "/v1/solve:batch", batch); rr.Code != http.StatusOK {
		t.Errorf("batch with timeout_ms=MaxInt64: %d %s", rr.Code, rr.Body.String())
	}
}
