package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kncube/internal/telemetry/span"
)

// callerTraceparent is the W3C example header used throughout: trace id
// 4bf92f3577b34da6a3ce929d0e0e4736, parent span 00f067aa0ba902b7.
const (
	callerTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	callerSpanID      = "00f067aa0ba902b7"
	callerTraceparent = "00-" + callerTraceID + "-" + callerSpanID + "-01"
)

// spanByName returns the first span with the given name, failing the test
// when absent.
func spanByName(t *testing.T, spans []span.Record, name string) span.Record {
	t.Helper()
	for _, r := range spans {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("trace has no %q span; got %v", name, spanNames(spans))
	return span.Record{}
}

func spanNames(spans []span.Record) []string {
	names := make([]string, len(spans))
	for i, r := range spans {
		names[i] = r.Name
	}
	return names
}

// getTrace fetches /v1/traces/{id}, returning the status code and spans.
func getTrace(t *testing.T, h http.Handler, id string) (int, []span.Record) {
	t.Helper()
	rr := getPath(h, "/v1/traces/"+id)
	if rr.Code != http.StatusOK {
		return rr.Code, nil
	}
	return rr.Code, decodeBody[TraceResponse](t, rr).Spans
}

// TestTraceparentJoinsCallerTrace is the tentpole end-to-end check: a solve
// carrying a caller's traceparent header joins that trace — the response
// echoes the caller's trace id, and the retained span tree covers
// admission, cache, solve, prepare, and the fixed-point iteration, all
// under the caller's id with the caller's span as the remote parent.
func TestTraceparentJoinsCallerTrace(t *testing.T) {
	s := New(Config{TraceSeed: 42, RuntimeMetricsInterval: -1})
	h := s.Handler()

	raw, _ := json.Marshal(figureRequest())
	req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(string(raw)))
	req.Header.Set("traceparent", callerTraceparent)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("solve status = %d, body %s", rr.Code, rr.Body.String())
	}

	echo := rr.Header().Get("traceparent")
	p, err := span.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", echo, err)
	}
	if p.TraceID.String() != callerTraceID {
		t.Fatalf("response trace id %s, want the caller's %s", p.TraceID, callerTraceID)
	}
	if p.SpanID.String() == callerSpanID {
		t.Errorf("response span id equals the caller's parent id; want the server's own root span")
	}

	// The root span ends inside the middleware, so by the time ServeHTTP
	// returned the trace is retained (and kept: the miss leader raised
	// cache-miss).
	code, spans := getTrace(t, h, callerTraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", callerTraceID, code)
	}
	root := spanByName(t, spans, "http POST /v1/solve")
	if !root.RemoteParent || root.ParentID != callerSpanID {
		t.Errorf("root parent = %q (remote=%v), want the caller's %s as a remote parent",
			root.ParentID, root.RemoteParent, callerSpanID)
	}
	if got := fmt.Sprint(root.Attrs["tail.keep"]); got != "cache-miss" {
		t.Errorf("root tail.keep = %q, want cache-miss", got)
	}
	if got := fmt.Sprint(root.Attrs["cache"]); got != cacheMiss {
		t.Errorf("root cache attr = %q, want %q", got, cacheMiss)
	}

	// Parent chain: admission and cache hang off the root; the solve runs
	// under the cache span (it is the miss leader's work); preparation and
	// the fixed-point iteration under the solve.
	admission := spanByName(t, spans, "admission")
	cache := spanByName(t, spans, "cache")
	solve := spanByName(t, spans, "solve")
	prepare := spanByName(t, spans, "core.prepare")
	fixp := spanByName(t, spans, "fixpoint.solve")
	for _, link := range []struct {
		name          string
		child, parent span.Record
	}{
		{"admission", admission, root},
		{"cache", cache, root},
		{"solve", solve, cache},
		{"core.prepare", prepare, solve},
		{"fixpoint.solve", fixp, solve},
	} {
		if link.child.ParentID != link.parent.SpanID {
			t.Errorf("%s parent = %q, want %s (%s)", link.name, link.child.ParentID, link.parent.SpanID, link.parent.Name)
		}
		if link.child.TraceID != callerTraceID {
			t.Errorf("%s trace id = %s, want the caller's %s", link.name, link.child.TraceID, callerTraceID)
		}
	}
	if got := fmt.Sprint(admission.Attrs["outcome"]); got != "admitted" {
		t.Errorf("admission outcome = %q, want admitted", got)
	}

	// The fixpoint span records the iteration: one round per substitution
	// round, numbered in order, and the convergence tallies as attributes.
	if len(fixp.Rounds) == 0 {
		t.Error("fixpoint.solve span has no rounds")
	}
	for i, r := range fixp.Rounds {
		if r.Iteration != int64(i+1) {
			t.Errorf("fixpoint round %d has iteration %d", i+1, r.Iteration)
		}
	}
	if got := fmt.Sprint(fixp.Attrs["iterations"]); got != fmt.Sprint(len(fixp.Rounds)+fixp.DroppedEvents) {
		t.Errorf("fixpoint.solve iterations attr %v, %d rounds kept and %d dropped",
			got, len(fixp.Rounds), fixp.DroppedEvents)
	}

	// The server had not met the shape before, so the miss above prepared
	// its solver. A later miss on the shape (a new load) checks that solver
	// out of the server's pool: its trace has the solve and its rounds,
	// bound to this request's hook, but no core.prepare.
	later := figureRequest()
	later.Lambda *= 0.9
	raw, _ = json.Marshal(later)
	req = httptest.NewRequest("POST", "/v1/solve", strings.NewReader(string(raw)))
	req.Header.Set("traceparent", "00-"+laterTraceID+"-"+callerSpanID+"-01")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("later solve status = %d, body %s", rr.Code, rr.Body.String())
	}
	code, spans = getTrace(t, h, laterTraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", laterTraceID, code)
	}
	solve = spanByName(t, spans, "solve")
	fixp = spanByName(t, spans, "fixpoint.solve")
	if fixp.ParentID != solve.SpanID || len(fixp.Rounds) == 0 {
		t.Errorf("later fixpoint.solve: parent %q (solve %s), %d rounds; want a child of solve with rounds",
			fixp.ParentID, solve.SpanID, len(fixp.Rounds))
	}
	for _, sp := range spans {
		if sp.Name == "core.prepare" {
			t.Errorf("a later miss on a pooled shape prepared again")
		}
	}
}

// TestTraceTailDropAndKeep pins the tail policy end to end: with the ratio
// and slow rules disabled an unremarkable request's trace is dropped, while
// a cache-miss solve is kept regardless because the leader raised a keep
// reason.
func TestTraceTailDropAndKeep(t *testing.T) {
	s := New(Config{TraceKeepRatio: -1, SlowTraceThreshold: -1, RuntimeMetricsInterval: -1})
	h := s.Handler()

	rr := getPath(h, "/healthz")
	p, err := span.ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("healthz traceparent: %v", err)
	}
	if code, _ := getTrace(t, h, p.TraceID.String()); code != http.StatusNotFound {
		t.Errorf("dropped healthz trace served with %d, want 404", code)
	}

	solveRR := postJSON(t, h, "/v1/solve", figureRequest())
	sp, err := span.ParseTraceparent(solveRR.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("solve traceparent: %v", err)
	}
	code, spans := getTrace(t, h, sp.TraceID.String())
	if code != http.StatusOK {
		t.Fatalf("cache-miss trace dropped (%d); keep reasons must override the keep-none ratio", code)
	}
	root := spanByName(t, spans, "http POST /v1/solve")
	if got := fmt.Sprint(root.Attrs["tail.keep"]); got != "cache-miss" {
		t.Errorf("tail.keep = %q, want cache-miss", got)
	}
}

// TestSweepJobTraceLinksBackToRequest: an async sweep roots its own trace
// (the job outlives the request) whose root span links back to the
// originating request's trace, with one sweep.sim span per (λ, rep) job.
func TestSweepJobTraceLinksBackToRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (tiny) simulation")
	}
	s := New(Config{RuntimeMetricsInterval: -1})
	h := s.Handler()

	rr := postJSON(t, h, "/v1/sweeps", SweepRequest{
		Panel:  "fig1-h20",
		Points: 1,
		Budget: &SweepBudget{WarmupCycles: 200, MaxCycles: 5000, MinMeasured: 50},
	})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("sweep submission = %d, body %s", rr.Code, rr.Body.String())
	}
	reqParent, err := span.ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("sweep response traceparent: %v", err)
	}
	st := decodeBody[SweepStatus](t, rr)
	if st.TraceID == "" {
		t.Fatal("sweep status carries no trace_id")
	}
	if st.TraceID == reqParent.TraceID.String() {
		t.Fatal("job trace id equals the request's; the job must root a fresh trace")
	}

	// Wait for the job to finish, then for its trace to land in the ring
	// (the root span exports just after the state turns terminal).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur := decodeBody[SweepStatus](t, getPath(h, "/v1/sweeps/"+st.ID))
		if cur.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep job stuck in %q", cur.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var spans []span.Record
	for {
		var code int
		if code, spans = getTrace(t, h, st.TraceID); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job trace %s never exported", st.TraceID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	job := spanByName(t, spans, "sweep.job")
	if job.ParentID != "" {
		t.Errorf("sweep.job has parent %q, want a root span", job.ParentID)
	}
	if got := fmt.Sprint(job.Attrs["link.trace_id"]); got != reqParent.TraceID.String() {
		t.Errorf("sweep.job link.trace_id = %q, want the request trace %s", got, reqParent.TraceID)
	}
	if got := fmt.Sprint(job.Attrs["state"]); got != JobDone {
		t.Errorf("sweep.job state attr = %q, want done", got)
	}
	sim := spanByName(t, spans, "sweep.sim")
	if sim.TraceID != st.TraceID {
		t.Errorf("sweep.sim trace id = %s, want the job's %s", sim.TraceID, st.TraceID)
	}
	if _, ok := sim.Attrs["seed"]; !ok {
		t.Errorf("sweep.sim span missing the derived seed attr: %v", sim.Attrs)
	}
}

// TestVersionEndpoint: GET /v1/version reports the build as read from
// debug.ReadBuildInfo, and the same identity is exported as the
// khs_serve_build_info gauge.
func TestVersionEndpoint(t *testing.T) {
	s := New(Config{RuntimeMetricsInterval: -1})
	h := s.Handler()

	rr := getPath(h, "/v1/version")
	if rr.Code != http.StatusOK {
		t.Fatalf("version status = %d", rr.Code)
	}
	v := decodeBody[VersionResponse](t, rr)
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("version response incomplete: %+v", v)
	}

	metrics := getPath(h, "/metrics").Body.String()
	if !strings.Contains(metrics, "khs_serve_build_info{") {
		t.Errorf("metrics missing khs_serve_build_info:\n%s", metrics)
	}
}

// TestRuntimeMetricsSampled: the khs_runtime_* process gauges appear on
// /metrics from the synchronous construction-time sample even with the
// ticker disabled.
func TestRuntimeMetricsSampled(t *testing.T) {
	s := New(Config{RuntimeMetricsInterval: -1})
	metrics := getPath(s.Handler(), "/metrics").Body.String()
	for _, want := range []string{
		"khs_runtime_goroutines",
		"khs_runtime_heap_bytes",
		"khs_runtime_gc_pause_seconds",
		"khs_serve_uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}
