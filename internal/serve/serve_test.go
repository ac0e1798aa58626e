package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/stats"
	"kncube/internal/telemetry"
)

// figureRequest is the Figure-1 h=20% operating point used throughout:
// 16x16 torus, 2 virtual channels, 32-flit messages, second load point of
// the published sweep.
func figureRequest() SolveRequest {
	return SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.00015}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", path, strings.NewReader(string(raw))))
	return rr
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func decodeBody[T any](t *testing.T, rr *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rr.Body.String(), err)
	}
	return v
}

// TestSolveMatchesCoreBitForBit: the API answer for the Figure-1 h=20%
// point is the same float64, bit for bit, as a direct core.Solve — the
// service layer adds transport, never arithmetic. The repeat request must
// be served from the cache.
func TestSolveMatchesCoreBitForBit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()

	rr := postJSON(t, h, "/v1/solve", figureRequest())
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	resp := decodeBody[SolveResponse](t, rr)
	if resp.Cache != cacheMiss || resp.Result == nil {
		t.Fatalf("first solve: cache=%q result=%v, want a miss with a result", resp.Cache, resp.Result)
	}

	spec := core.Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.00015}
	want, err := core.Solve(experiments.DefaultModel, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cmp := range []struct {
		name      string
		got, want float64
	}{
		{"latency", resp.Result.Latency, want.Latency},
		{"regular", resp.Result.Regular, want.Regular},
		{"hot", resp.Result.Hot, want.Hot},
		{"source_wait", resp.Result.SourceWait, want.SourceWait},
		{"vbar", resp.Result.VBar, want.VBar},
	} {
		if math.Float64bits(cmp.got) != math.Float64bits(cmp.want) {
			t.Errorf("%s = %v over the API, %v from core.Solve — not bit-identical", cmp.name, cmp.got, cmp.want)
		}
	}
	if resp.Result.Iterations != want.Convergence.Iterations {
		t.Errorf("iterations = %d, want %d", resp.Result.Iterations, want.Convergence.Iterations)
	}

	again := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", figureRequest()))
	if again.Cache != cacheHit {
		t.Errorf("repeat request: cache=%q, want hit", again.Cache)
	}
	if math.Float64bits(again.Result.Latency) != math.Float64bits(want.Latency) {
		t.Errorf("cached latency %v differs from solved %v", again.Result.Latency, want.Latency)
	}
	if hits := s.Registry().Counter("khs_serve_cache_hits_total", "", nil).Value(); hits != 1 {
		t.Errorf("khs_serve_cache_hits_total = %d, want 1", hits)
	}
}

// TestSolveCacheKeysCanonicalSpec: the solve cache keys on the canonical
// spec, so a request that spells out a variant's default (Dims 2 on
// hotspot-2d) hits the entry an otherwise identical request with Dims
// omitted created — they are the same solve.
func TestSolveCacheKeysCanonicalSpec(t *testing.T) {
	h := New(Config{}).Handler()
	omitted := figureRequest()
	first := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", omitted))
	if first.Cache != cacheMiss {
		t.Fatalf("Dims omitted: cache=%q, want miss", first.Cache)
	}
	spelled := omitted
	spelled.Dims = 2
	again := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", spelled))
	if again.Cache != cacheHit {
		t.Errorf("Dims 2 after Dims omitted: cache=%q, want hit", again.Cache)
	}
	if again.Result == nil || math.Float64bits(again.Result.Latency) != math.Float64bits(first.Result.Latency) {
		t.Errorf("aliased specs answered differently: %+v vs %+v", again.Result, first.Result)
	}
}

// TestSolveAcceleration pins the acceleration options end to end:
// "anderson" is the default (and shares its cache entry), "none" keys its
// own entry and reproduces the library's damped solve bit for bit, and the
// default reproduces the library's accelerated solve — same answer, same
// iteration count in the convergence metadata.
func TestSolveAcceleration(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	spec := core.Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.00015}

	base := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", figureRequest()))
	if base.Result == nil {
		t.Fatalf("baseline solve failed: %+v", base)
	}

	// Explicit "anderson" must not just match bit for bit — it must hit
	// the very cache entry the default solve populated, proving the key
	// does not distinguish them.
	req := figureRequest()
	req.Options = &SolveOptions{Acceleration: "anderson"}
	explicit := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", req))
	if explicit.Cache != cacheHit {
		t.Errorf(`acceleration "anderson": cache=%q, want hit on the default entry`, explicit.Cache)
	}
	if math.Float64bits(explicit.Result.Latency) != math.Float64bits(base.Result.Latency) {
		t.Errorf(`acceleration "anderson" latency %v is not bit-identical to default %v`,
			explicit.Result.Latency, base.Result.Latency)
	}

	// "none" is the damped opt-out: its own entry, the damped core.Solve
	// to the last bit, and the same fixed point as the default.
	req.Options = &SolveOptions{Acceleration: "none"}
	none := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", req))
	if none.Cache != cacheMiss || none.Result == nil {
		t.Fatalf(`acceleration "none": cache=%q result=%v, want a fresh miss`, none.Cache, none.Result)
	}
	var dampedOpts core.Options
	dampedOpts.FixPoint.Acceleration = fixpoint.AccelNone
	damped, err := core.Solve(experiments.DefaultModel, spec, dampedOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 53.74328771872527 is what /v1/solve answered for this spec while
	// damped substitution was the default.
	if math.Float64bits(none.Result.Latency) != math.Float64bits(53.74328771872527) ||
		math.Float64bits(none.Result.Latency) != math.Float64bits(damped.Latency) ||
		none.Result.Iterations != damped.Convergence.Iterations {
		t.Errorf(`acceleration "none": latency %v in %d rounds, damped core.Solve %v in %d`,
			none.Result.Latency, none.Result.Iterations, damped.Latency, damped.Convergence.Iterations)
	}
	if math.Abs(none.Result.Latency-base.Result.Latency) > 1e-6 {
		t.Errorf("damped latency %v and default latency %v disagree beyond tolerance — not the same fixed point",
			none.Result.Latency, base.Result.Latency)
	}

	// The default answer is the accelerated core.Solve's, to the last bit
	// and round.
	want, err := core.Solve(experiments.DefaultModel, spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(base.Result.Latency) != math.Float64bits(want.Latency) ||
		base.Result.Iterations != want.Convergence.Iterations {
		t.Errorf("default latency %v in %d rounds over the API, %v in %d from core.Solve",
			base.Result.Latency, base.Result.Iterations, want.Latency, want.Convergence.Iterations)
	}
}

// TestSolveValidationIsStructured: every class of bad request comes back
// as a 400 naming the offending field — never a plain 500.
func TestSolveValidationIsStructured(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"radix too small", SolveRequest{K: 1, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, "k"},
		{"no virtual channels", SolveRequest{K: 16, V: 0, Lm: 32, H: 0.2, Lambda: 1e-4}, "v"},
		{"negative hot-spot fraction", SolveRequest{K: 16, V: 2, Lm: 32, H: -0.1, Lambda: 1e-4}, "h"},
		{"negative load", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: -1}, "lambda"},
		{"unknown model", SolveRequest{Model: "no-such-model", K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, "model"},
		{"wrong dims for 2d variant", SolveRequest{K: 16, Dims: 3, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, "dims"},
		{"unknown blocking option", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Blocking: "none"}}, "options.blocking"},
		{"retired wait-only blocking", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Blocking: "wait-only"}}, "options.blocking"},
		{"retired bandwidth blocking", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Blocking: "bandwidth"}}, "options.blocking"},
		{"retired paper blocking", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Blocking: "paper"}}, "options.blocking"},
		// The entrance policy, the variance form and the no-VC-split
		// switch are retired (results/ablations.csv freezes their curves):
		// the strict decoder refuses each field, whatever its value.
		{"unknown entrance option", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"entrance": "psychic"}}, "body"},
		{"retired kbar entrance", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"entrance": "kbar"}}, "body"},
		{"entrance on a variant without one", map[string]any{"model": "uniform", "k": 16, "v": 2, "lm": 32, "lambda": 1e-4,
			"options": map[string]any{"entrance": "worst-case"}}, "body"},
		{"retired default entrance", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"entrance": "mean-distance"}}, "body"},
		{"retired paper variance", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"variance": "paper"}}, "body"},
		{"retired no-vc-split", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"no_vc_split": true}}, "body"},
		{"negative timeout", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4, TimeoutMS: -5}, "timeout_ms"},
		{"unknown acceleration", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Acceleration: "psychic"}}, "options.acceleration"},
		{"retired aitken acceleration", SolveRequest{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
			Options: &SolveOptions{Acceleration: "aitken"}}, "options.acceleration"},
		// anderson_window is retired: the window is a solver constant, and
		// the field is unknown to the strict decoder, whatever its value.
		{"negative anderson window", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"acceleration": "anderson", "anderson_window": -1}}, "body"},
		{"window without anderson", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"acceleration": "none", "anderson_window": 3}}, "body"},
		{"default anderson window", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4,
			"options": map[string]any{"acceleration": "anderson", "anderson_window": 5}}, "body"},
		{"unknown json field", map[string]any{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4, "kk": 1}, "body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postJSON(t, h, "/v1/solve", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", rr.Code, rr.Body.String())
			}
			resp := decodeBody[ErrorResponse](t, rr)
			if len(resp.Fields) == 0 {
				t.Fatalf("400 with no field issues: %s", rr.Body.String())
			}
			if resp.Fields[0].Field != tc.field {
				t.Errorf("field = %q, want %q (reason: %s)", resp.Fields[0].Field, tc.field, resp.Fields[0].Reason)
			}
			if resp.Error == "" || resp.Fields[0].Reason == "" {
				t.Errorf("empty error text in %s", rr.Body.String())
			}
		})
	}
}

// TestSolveSaturatedIs200: past the saturation load the model's answer is
// "no finite latency" — a 200 with Saturated set, cacheable like any other
// deterministic outcome.
func TestSolveSaturatedIs200(t *testing.T) {
	h := New(Config{}).Handler()
	req := figureRequest()
	req.Lambda = 0.01 // far beyond channel capacity
	rr := postJSON(t, h, "/v1/solve", req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s, want 200", rr.Code, rr.Body.String())
	}
	resp := decodeBody[SolveResponse](t, rr)
	if !resp.Saturated || resp.Result != nil || resp.Detail == "" {
		t.Errorf("saturated solve: %+v, want Saturated with Detail and no Result", resp)
	}
	again := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", req))
	if again.Cache != cacheHit || !again.Saturated {
		t.Errorf("repeat saturated solve: cache=%q saturated=%v, want a hit", again.Cache, again.Saturated)
	}
}

// TestSolveDeadlineBecomes504: an already-expired request deadline is
// noticed inside the fixed-point iteration and surfaces as 504, not as a
// saturation verdict or a 500.
func TestSolveDeadlineBecomes504(t *testing.T) {
	s := New(Config{RequestTimeout: time.Nanosecond})
	rr := postJSON(t, s.Handler(), "/v1/solve", figureRequest())
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", rr.Code, rr.Body.String())
	}
	resp := decodeBody[ErrorResponse](t, rr)
	if !strings.Contains(resp.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", resp.Error)
	}
	if n := s.Registry().Counter("khs_serve_solves_total", "",
		telemetry.Labels{"model": experiments.DefaultModel, "outcome": "cancelled"}).Value(); n != 1 {
		t.Errorf("cancelled-outcome counter = %d, want 1", n)
	}
	// The expired solve must not have entered the cache.
	if n := s.cache.len(); n != 0 {
		t.Errorf("cache holds %d entries after a cancelled solve, want 0", n)
	}
}

// TestSolveShedsWhenSaturatedWithWork: with every admission slot held, the
// next solve is shed immediately with 429 — load is refused, not queued.
func TestSolveShedsWhenSaturatedWithWork(t *testing.T) {
	s := New(Config{MaxInflight: 2})
	s.slots <- struct{}{} // occupy both slots, as two stuck solves would
	s.slots <- struct{}{}
	rr := postJSON(t, s.Handler(), "/v1/solve", figureRequest())
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %s, want 429", rr.Code, rr.Body.String())
	}
	if n := s.Registry().Counter("khs_serve_shed_total", "",
		telemetry.Labels{"reason": "inflight-cap"}).Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
	<-s.slots // free a slot: service resumes
	<-s.slots
	if rr := postJSON(t, s.Handler(), "/v1/solve", figureRequest()); rr.Code != http.StatusOK {
		t.Errorf("after slots freed: status %d, want 200", rr.Code)
	}
}

// TestShutdownDrains: after Shutdown, health turns 503, and new solves and
// sweep submissions are refused with 503 while status reads keep working.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if rr := getPath(h, "/healthz"); rr.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", rr.Code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown with no jobs: %v", err)
	}
	if rr := getPath(h, "/healthz"); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", rr.Code)
	}
	if rr := postJSON(t, h, "/v1/solve", figureRequest()); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("solve while draining: %d, want 503", rr.Code)
	}
	if rr := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20"}); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("sweep submission while draining: %d, want 503", rr.Code)
	}
}

// TestMetricsEndpoint: GET /metrics exposes the khs_serve_* set in
// Prometheus text format, including the cache counters the acceptance
// criteria key on.
func TestMetricsEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	postJSON(t, h, "/v1/solve", figureRequest())
	postJSON(t, h, "/v1/solve", figureRequest())
	rr := getPath(h, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"khs_serve_cache_hits_total 1",
		"khs_serve_cache_misses_total 1",
		`khs_serve_requests_total{code="200",route="POST /v1/solve"} 2`,
		"khs_serve_request_seconds_count",
		"khs_serve_solve_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestSweepValidation: sweep submissions with bad parameters come back as
// structured 400s.
func TestSweepValidation(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"missing panel", SweepRequest{}, "panel"},
		{"unknown panel", SweepRequest{Panel: "fig9-h99"}, "panel"},
		{"unknown model", SweepRequest{Panel: "fig1-h20", Model: "no-such-model"}, "model"},
		{"negative points", SweepRequest{Panel: "fig1-h20", Points: -1}, "points"},
		{"unknown json field", map[string]any{"panel": "fig1-h20", "pannel": true}, "body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postJSON(t, h, "/v1/sweeps", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", rr.Code, rr.Body.String())
			}
			resp := decodeBody[ErrorResponse](t, rr)
			if len(resp.Fields) == 0 || resp.Fields[0].Field != tc.field {
				t.Errorf("fields = %+v, want first field %q", resp.Fields, tc.field)
			}
		})
	}
	if rr := getPath(h, "/v1/sweeps/sweep-999999"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", rr.Code)
	}
}

// waitJob blocks until the job goroutine has finished (white-box: the
// finished channel closes exactly once) and returns the final status.
func waitJob(t *testing.T, s *Server, h http.Handler, id string) SweepStatus {
	t.Helper()
	j, ok := s.jobs.get(id)
	if !ok {
		t.Fatalf("job %q not in store", id)
	}
	select {
	case <-j.finished:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %q did not finish", id)
	}
	rr := getPath(h, "/v1/sweeps/"+id)
	if rr.Code != http.StatusOK {
		t.Fatalf("status fetch: %d", rr.Code)
	}
	return decodeBody[SweepStatus](t, rr)
}

// TestSweepJobReproducesCanonicalCSV is the end-to-end sweep contract: an
// async job over the first two points of the fig1-h20 panel renders — via
// the same WriteCSV the figure harness uses — exactly the first two rows of
// the published results/fig1-h20.csv. Seeds derive per point, so the
// truncated sweep is a strict prefix of the canonical one.
func TestSweepJobReproducesCanonicalCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~1s of simulation (more under -race)")
	}
	s := New(Config{})
	h := s.Handler()

	rr := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20", Points: 2})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s, want 202", rr.Code, rr.Body.String())
	}
	st := decodeBody[SweepStatus](t, rr)
	if loc := rr.Header().Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Errorf("Location = %q, want /v1/sweeps/%s", loc, st.ID)
	}
	if st.State != JobRunning && st.State != JobDone {
		t.Errorf("submission state = %q", st.State)
	}

	final := waitJob(t, s, h, st.ID)
	if final.State != JobDone || final.Done != final.Total || final.Total != 2 {
		t.Fatalf("final status %+v, want done 2/2", final)
	}

	pts := make([]experiments.Point, 0, len(final.Points))
	for _, sp := range final.Points {
		pt := experiments.Point{
			Lambda:         sp.Lambda,
			Model:          math.NaN(),
			ModelSaturated: sp.ModelSaturated,
			Sim:            sp.Sim,
			SimCI:          sp.SimCI,
			SimSaturated:   sp.SimSaturated,
			SimMeasured:    sp.SimMeasured,
		}
		if sp.Model != nil {
			pt.Model = *sp.Model
		}
		pts = append(pts, pt)
	}
	var got strings.Builder
	if err := experiments.WriteCSV(&got, pts); err != nil {
		t.Fatal(err)
	}

	canon, err := os.ReadFile("../../results/fig1-h20.csv")
	if err != nil {
		t.Fatal(err)
	}
	canonLines := strings.Split(strings.TrimSpace(string(canon)), "\n")
	want := strings.Join(canonLines[:3], "\n") + "\n" // header + first two points
	if got.String() != want {
		t.Errorf("sweep output is not a prefix of the canonical CSV:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestSweepCancellation: DELETE on a running job cancels it promptly; the
// terminal state is "cancelled", not "failed".
func TestSweepCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cancelled simulation sweep")
	}
	s := New(Config{})
	h := s.Handler()
	rr := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20"})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	st := decodeBody[SweepStatus](t, rr)

	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest("DELETE", "/v1/sweeps/"+st.ID, nil))
	if del.Code != http.StatusAccepted {
		t.Fatalf("cancel status = %d", del.Code)
	}
	final := waitJob(t, s, h, st.ID)
	if final.State != JobCancelled {
		t.Errorf("state after cancel = %q (error %q), want cancelled", final.State, final.Error)
	}
	if len(final.Points) != 0 {
		t.Errorf("cancelled job carries %d points, want none", len(final.Points))
	}
	if n := s.Registry().Counter("khs_serve_sweep_jobs_total", "",
		telemetry.Labels{"state": JobCancelled}).Value(); n != 1 {
		t.Errorf("cancelled-jobs counter = %d, want 1", n)
	}
}

// TestSweepMetricsBeforeFinished: a job's terminal counter and the
// active-jobs gauge are updated before its finished channel closes, so a
// waiter reads them without a race. Run it with -count=50 to check.
func TestSweepMetricsBeforeFinished(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	rr := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20", Points: 1,
		Budget: &SweepBudget{WarmupCycles: 100, MaxCycles: 1000, MinMeasured: 10}})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rr.Code, rr.Body.String())
	}
	j, ok := s.jobs.get(decodeBody[SweepStatus](t, rr).ID)
	if !ok {
		t.Fatal("job not in store")
	}
	<-j.finished
	if n := s.Registry().Counter("khs_serve_sweep_jobs_total", "",
		telemetry.Labels{"state": JobDone}).Value(); n != 1 {
		t.Errorf("done-jobs counter = %d right after finished, want 1", n)
	}
	if g := s.Registry().Gauge("khs_serve_active_sweeps", "", nil).Value(); !stats.IsZero(g) {
		t.Errorf("active sweeps = %v right after finished, want 0", g)
	}
}

// TestSweepLimits: requests beyond the sweep limits, or with a negative
// budget, are 400s naming the field, refused before a job exists or any
// request-sized allocation is made. The reps row once killed the server:
// it asked RunPanels for a 15.2 GB result slice.
func TestSweepLimits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		body  string
		field string
	}{
		{"reps crash", `{"panel":"fig1-h20","points":1,"reps":100000000}`, "reps"},
		{"reps", `{"panel":"fig1-h20","reps":101}`, "reps"},
		{"jobs", `{"panel":"fig1-h20","jobs":33}`, "jobs"},
		{"max cycles", `{"panel":"fig1-h20","budget":{"max_cycles":2400001}}`, "budget.max_cycles"},
		{"warmup cycles", `{"panel":"fig1-h20","budget":{"warmup_cycles":2400001}}`, "budget.warmup_cycles"},
		{"negative max cycles", `{"panel":"fig1-h20","budget":{"max_cycles":-1}}`, "budget.max_cycles"},
		{"negative warmup", `{"panel":"fig1-h20","budget":{"warmup_cycles":-5}}`, "budget.warmup_cycles"},
		{"negative min measured", `{"panel":"fig1-h20","budget":{"min_measured":-1}}`, "budget.min_measured"},
		{"warmup past cap", `{"panel":"fig1-h20","budget":{"warmup_cycles":2000,"max_cycles":2000}}`, "budget.warmup_cycles"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			h := s.Handler()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(tc.body)))
			runtime.ReadMemStats(&after)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rr.Code, rr.Body.String())
			}
			resp := decodeBody[ErrorResponse](t, rr)
			if len(resp.Fields) != 1 || resp.Fields[0].Field != tc.field {
				t.Errorf("fields = %+v, want one issue on %q", resp.Fields, tc.field)
			}
			if len(s.jobs.jobs) != 0 {
				t.Errorf("%d jobs launched for a refused request", len(s.jobs.jobs))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("refusing the request allocated %d bytes, want under 1 MiB", grew)
			}
		})
	}
}

// TestSweepCapSheds: submissions beyond MaxActiveSweeps are shed with 429
// while the active job keeps running.
func TestSweepCapSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a short simulation sweep")
	}
	s := New(Config{MaxActiveSweeps: 1})
	h := s.Handler()
	first := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20"})
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submission: %d", first.Code)
	}
	st := decodeBody[SweepStatus](t, first)

	second := postJSON(t, h, "/v1/sweeps", SweepRequest{Panel: "fig1-h20", Points: 1})
	if second.Code != http.StatusTooManyRequests {
		t.Errorf("second submission: %d, want 429", second.Code)
	}
	if n := s.Registry().Counter("khs_serve_shed_total", "",
		telemetry.Labels{"reason": "sweep-cap"}).Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}

	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest("DELETE", "/v1/sweeps/"+st.ID, nil))
	waitJob(t, s, h, st.ID)
}
