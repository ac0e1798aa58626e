package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/stats"
	"kncube/internal/surface"
	"kncube/internal/telemetry"
)

// batchRequest builds a small batch over the figure shape: three loads of
// the 16x16 torus plus one 8x8 shape in the middle, so preparation reuse
// spans both a revisited shape and an interleaved different one.
func batchRequest() BatchSolveRequest {
	return BatchSolveRequest{Items: []BatchSpec{
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
		{K: 8, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4},
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1.5e-4},
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 2.2e-4},
	}}
}

// TestBatchSolveAccelerationSharesSingleSolveKeys: batch items solved with
// acceleration options interact with the cache under exactly the keys their
// /v1/solve equivalents use — an accelerated single solve afterwards is a
// hit, with the explicit scheme or the default, and the accelerated
// entries are distinct from the damped ones.
func TestBatchSolveAccelerationSharesSingleSolveKeys(t *testing.T) {
	h := New(Config{}).Handler()
	req := batchRequest()
	req.Options = &SolveOptions{Acceleration: "anderson"}

	resp := decodeBody[BatchSolveResponse](t, postJSON(t, h, "/v1/solve:batch", req))
	for i, it := range resp.Items {
		if it.Status != "ok" || it.Cache != cacheMiss {
			t.Fatalf("item %d: status %q cache %q, want ok/miss", i, it.Status, it.Cache)
		}
	}

	bs := req.Items[0]
	single := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", SolveRequest{
		K: bs.K, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda,
		Options: req.Options,
	}))
	if single.Cache != cacheHit {
		t.Errorf("accelerated single solve after the batch: cache=%q, want hit", single.Cache)
	}
	if math.Float64bits(single.Result.Latency) != math.Float64bits(resp.Items[0].Result.Latency) {
		t.Errorf("accelerated single latency %v differs from batch item %v",
			single.Result.Latency, resp.Items[0].Result.Latency)
	}

	deflt := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", SolveRequest{
		K: bs.K, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda,
	}))
	if deflt.Cache != cacheHit {
		t.Errorf("default-options solve after the batch: cache=%q, want hit (the default is anderson)", deflt.Cache)
	}

	damped := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", SolveRequest{
		K: bs.K, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda,
		Options: &SolveOptions{Acceleration: "none"},
	}))
	if damped.Cache != cacheMiss {
		t.Errorf("damped solve of the same spec: cache=%q, want miss (acceleration keys its own entry)", damped.Cache)
	}
}

// singleClass is the outcome class of a /v1/solve response in the batch
// item vocabulary: ok, saturated, invalid (a 400) or error (any other
// refusal or failure).
func singleClass(t *testing.T, rr *httptest.ResponseRecorder) string {
	t.Helper()
	switch rr.Code {
	case http.StatusOK:
		if decodeBody[SolveResponse](t, rr).Saturated {
			return "saturated"
		}
		return "ok"
	case http.StatusBadRequest:
		return "invalid"
	}
	return "error"
}

// sameResult reports whether two results carry the same numbers, bit for
// bit (both nil counts as the same).
func sameResult(a, b *SolveResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	bits := math.Float64bits
	return bits(a.Latency) == bits(b.Latency) && bits(a.Regular) == bits(b.Regular) &&
		bits(a.Hot) == bits(b.Hot) && bits(a.SourceWait) == bits(b.SourceWait) &&
		bits(a.VBar) == bits(b.VBar) && a.Iterations == b.Iterations &&
		bits(a.Residual) == bits(b.Residual)
}

// TestBatchSolveMatchesSingleSolves is the batch endpoint's core contract:
// each item of a POST /v1/solve:batch answer is the answer the same spec
// gets from POST /v1/solve — bit for bit in its numbers, and the same in
// cache, source, surface id, error estimate and outcome class — whichever
// way the pipeline answers it: a clean exact solve, a saturation, an
// invalid spec, an auto-mode surface hit, an auto-mode fallback to the
// exact solver, or a surface-mode spec with no surface. The batch and the
// single solves each run on a cold server holding the same surface; on
// the batch's server, the single solves then hit the entries the items
// populated (one cache, one key space).
func TestBatchSolveMatchesSingleSolves(t *testing.T) {
	sfc, err := surface.Build(surface.Def{
		Model: experiments.DefaultModel, K: 8, V: 2, Lm: 16,
		Hs:      []float64{0.1, 0.2},
		Lambdas: []float64{5e-5, 1e-4, 1.5e-4, 2e-4, 2.5e-4, 3e-4},
	}, surface.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newHandler := func() http.Handler {
		s := New(Config{RuntimeMetricsInterval: -1})
		s.surfaces.Add(sfc, "")
		return s.Handler()
	}
	batched, single := newHandler(), newHandler()

	exact := batchRequest()
	exact.Items = append(exact.Items,
		BatchSpec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.01}, // far beyond saturation
		BatchSpec{K: 1, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4})  // radix below the 2D minimum
	auto := BatchSolveRequest{Options: &SolveOptions{Mode: ModeAuto}, Items: []BatchSpec{
		{K: 8, V: 2, Lm: 16, H: 0.15, Lambda: 1.25e-4}, // inside the grid: interpolated
		{K: 8, V: 2, Lm: 16, H: 0.15, Lambda: 2.5e-5},  // below the λ axis: exact fallback
	}}
	noSurface := BatchSolveRequest{Options: &SolveOptions{Mode: ModeSurface}, Items: []BatchSpec{
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4},
	}}
	want := map[string]int{"ok": 6, "saturated": 1, "invalid": 1, "error": 1}
	got := map[string]int{}
	surfaceHits := 0

	for _, req := range []BatchSolveRequest{exact, auto, noSurface} {
		rr := postJSON(t, batched, "/v1/solve:batch", req)
		if rr.Code != http.StatusOK {
			t.Fatalf("batch status = %d, body %s, want 200", rr.Code, rr.Body.String())
		}
		resp := decodeBody[BatchSolveResponse](t, rr)
		if resp.Model != experiments.DefaultModel {
			t.Errorf("model = %q, want the default", resp.Model)
		}
		if len(resp.Items) != len(req.Items) {
			t.Fatalf("%d items for %d specs", len(resp.Items), len(req.Items))
		}
		for i, bs := range req.Items {
			it := resp.Items[i]
			got[it.Status]++
			name := fmt.Sprintf("mode %v item %+v", req.Options, bs)
			sreq := SolveRequest{K: bs.K, Dims: bs.Dims, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda,
				Options: req.Options}
			srr := postJSON(t, single, "/v1/solve", sreq)
			if class := singleClass(t, srr); it.Status != class {
				t.Errorf("%s: batch status %q, single %d (%s)", name, it.Status, srr.Code, class)
				continue
			}
			switch it.Status {
			case "ok", "saturated":
				one := decodeBody[SolveResponse](t, srr)
				// An item carries cache only where the cache was consulted.
				cache := one.Cache
				if one.Source == ModeSurface {
					cache = ""
					surfaceHits++
				}
				if !sameResult(it.Result, one.Result) {
					t.Errorf("%s: batch result %+v, single %+v — not bit-identical", name, it.Result, one.Result)
				}
				if it.Cache != cache || it.Source != one.Source || it.SurfaceID != one.SurfaceID ||
					math.Float64bits(it.ErrorEstimate) != math.Float64bits(one.ErrorEstimate) {
					t.Errorf("%s: batch cache %q source %q surface %q estimate %v, single %q %q %q %v", name,
						it.Cache, it.Source, it.SurfaceID, it.ErrorEstimate,
						one.Cache, one.Source, one.SurfaceID, one.ErrorEstimate)
				}
				if it.Saturated != one.Saturated || it.Detail != one.Detail {
					t.Errorf("%s: batch saturated %v detail %q, single %v %q", name,
						it.Saturated, it.Detail, one.Saturated, one.Detail)
				}
				if it.Cache == "" {
					continue
				}
				// The single solve on the batch's server is served from the
				// entry the item populated.
				again := decodeBody[SolveResponse](t, postJSON(t, batched, "/v1/solve", sreq))
				if again.Cache != cacheHit || !sameResult(again.Result, it.Result) {
					t.Errorf("%s: single solve after the batch: cache %q, result %+v, want a hit of %+v",
						name, again.Cache, again.Result, it.Result)
				}
			case "invalid":
				one := decodeBody[ErrorResponse](t, srr)
				if it.Detail != one.Error || !reflect.DeepEqual(it.Fields, one.Fields) {
					t.Errorf("%s: batch detail %q fields %+v, single %q %+v", name, it.Detail, it.Fields, one.Error, one.Fields)
				}
				if it.Cache != "" || it.Source != "" || it.Result != nil {
					t.Errorf("%s: invalid item carries cache/source/result: %+v", name, it)
				}
			case "error":
				one := decodeBody[ErrorResponse](t, srr)
				key := surface.ShapeKey(experiments.DefaultModel,
					core.Spec{K: bs.K, Dims: bs.Dims, V: bs.V, Lm: bs.Lm, H: bs.H}, core.Options{})
				if srr.Code != http.StatusConflict || !strings.Contains(it.Detail, key) || !strings.Contains(one.Error, key) {
					t.Errorf("%s: single %d %q, batch detail %q — want both to name shape %s",
						name, srr.Code, one.Error, it.Detail, key)
				}
				if it.Cache != "" || it.Source != "" || it.Result != nil {
					t.Errorf("%s: no-surface item carries cache/source/result: %+v", name, it)
				}
			}
		}

		// A repeat batch is served wholly from the cache where it reached it.
		again := decodeBody[BatchSolveResponse](t, postJSON(t, batched, "/v1/solve:batch", req))
		for i, it := range again.Items {
			if resp.Items[i].Cache != "" && it.Cache != cacheHit {
				t.Errorf("repeat batch item %d: cache %q, want hit", i, it.Cache)
			}
		}
	}
	if !reflect.DeepEqual(got, want) || surfaceHits != 1 {
		t.Errorf("batch statuses %v with %d surface hits, want %v with 1", got, surfaceHits, want)
	}
}

// TestBatchSolvePerItemOutcomes: a batch mixing clean, invalid and saturated
// specs answers 200 with each item reporting its own outcome — per-item
// failure never fails the batch, and the surrounding items solve normally.
func TestBatchSolvePerItemOutcomes(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	req := BatchSolveRequest{Items: []BatchSpec{
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
		{K: 1, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4},    // radix below the 2D minimum
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.01},   // far beyond saturation
		{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5}, // repeat of item 0: cache hit
	}}
	rr := postJSON(t, h, "/v1/solve:batch", req)
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s, want 200 with per-item outcomes", rr.Code, rr.Body.String())
	}
	items := decodeBody[BatchSolveResponse](t, rr).Items

	if items[0].Status != "ok" || items[0].Result == nil {
		t.Errorf("item 0: %+v, want a clean solve", items[0])
	}
	if items[1].Status != "invalid" || len(items[1].Fields) == 0 || items[1].Fields[0].Field != "k" {
		t.Errorf("item 1: status %q fields %+v, want invalid naming field k", items[1].Status, items[1].Fields)
	}
	if items[1].Result != nil || items[1].Cache != "" {
		t.Errorf("invalid item carries result/cache: %+v", items[1])
	}
	if items[2].Status != "saturated" || !items[2].Saturated || items[2].Detail == "" || items[2].Result != nil {
		t.Errorf("item 2: %+v, want saturated with detail and no result", items[2])
	}
	if items[3].Status != "ok" || items[3].Cache != cacheHit {
		t.Errorf("item 3: status %q cache %q, want an ok cache hit of item 0", items[3].Status, items[3].Cache)
	}

	for outcome, want := range map[string]int64{"ok": 2, "invalid": 1, "saturated": 1} {
		if n := s.Registry().Counter("khs_serve_batch_items_total", "",
			telemetry.Labels{"model": experiments.DefaultModel, "outcome": outcome}).Value(); n != want {
			t.Errorf("khs_serve_batch_items_total{outcome=%q} = %d, want %d", outcome, n, want)
		}
	}
}

// TestBatchSolveRequestValidation: request-level failures — malformed body,
// unknown model, bad option names, a bad timeout, an empty or oversized item
// list — reject the whole batch as structured 400s before any solving.
func TestBatchSolveRequestValidation(t *testing.T) {
	h := New(Config{}).Handler()
	huge := make([]BatchSpec, maxBatchItems+1)
	for i := range huge {
		huge[i] = BatchSpec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}
	}
	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"no items", BatchSolveRequest{}, "items"},
		{"too many items", BatchSolveRequest{Items: huge}, "items"},
		{"unknown model", BatchSolveRequest{Model: "no-such-model",
			Items: []BatchSpec{{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}}}, "model"},
		{"unknown option", BatchSolveRequest{Options: &SolveOptions{Blocking: "psychic"},
			Items: []BatchSpec{{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}}}, "options.blocking"},
		{"retired paper blocking", BatchSolveRequest{Options: &SolveOptions{Blocking: "paper"},
			Items: []BatchSpec{{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}}}, "options.blocking"},
		{"retired entrance", map[string]any{"options": map[string]any{"entrance": "worst-case"},
			"items": []map[string]any{{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4}}}, "body"},
		{"retired variance", map[string]any{"options": map[string]any{"variance": "paper"},
			"items": []map[string]any{{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4}}}, "body"},
		{"retired no-vc-split", map[string]any{"options": map[string]any{"no_vc_split": true},
			"items": []map[string]any{{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4}}}, "body"},
		{"negative timeout", BatchSolveRequest{TimeoutMS: -1,
			Items: []BatchSpec{{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}}}, "timeout_ms"},
		{"unknown json field", map[string]any{"items": []map[string]any{{"k": 16}}, "modell": "x"}, "body"},
		{"retired anderson window", map[string]any{"options": map[string]any{"anderson_window": 5},
			"items": []map[string]any{{"k": 16, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4}}}, "body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postJSON(t, h, "/v1/solve:batch", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", rr.Code, rr.Body.String())
			}
			resp := decodeBody[ErrorResponse](t, rr)
			if len(resp.Fields) == 0 || resp.Fields[0].Field != tc.field {
				t.Errorf("fields = %+v, want first field %q", resp.Fields, tc.field)
			}
		})
	}
}

// TestBatchSolveDeadlineBecomes504: when the batch deadline expires
// mid-batch the whole request answers 504 — a partially-solved batch is not
// a success.
func TestBatchSolveDeadlineBecomes504(t *testing.T) {
	s := New(Config{RequestTimeout: time.Nanosecond})
	rr := postJSON(t, s.Handler(), "/v1/solve:batch", batchRequest())
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", rr.Code, rr.Body.String())
	}
	resp := decodeBody[ErrorResponse](t, rr)
	if !strings.Contains(resp.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", resp.Error)
	}
	if n := s.Registry().Counter("khs_serve_batch_items_total", "",
		telemetry.Labels{"model": experiments.DefaultModel, "outcome": "cancelled"}).Value(); n != 1 {
		t.Errorf("cancelled-item counter = %d, want 1", n)
	}
}

// TestBatchSolveAdmission: a batch occupies exactly one admission slot, is
// shed with 429 when all slots are held, and refused with 503 while
// draining.
func TestBatchSolveAdmission(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	s.slots <- struct{}{}
	if rr := postJSON(t, s.Handler(), "/v1/solve:batch", batchRequest()); rr.Code != http.StatusTooManyRequests {
		t.Errorf("batch with slots full: %d, want 429", rr.Code)
	}
	<-s.slots
	if rr := postJSON(t, s.Handler(), "/v1/solve:batch", batchRequest()); rr.Code != http.StatusOK {
		t.Errorf("batch after slot freed: %d, want 200", rr.Code)
	}
	if got := s.inflight.Value(); !stats.IsZero(got) {
		t.Errorf("inflight gauge after batch = %v, want 0", got)
	}

	drained := New(Config{})
	drained.draining.Store(true)
	if rr := postJSON(t, drained.Handler(), "/v1/solve:batch", batchRequest()); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("batch while draining: %d, want 503", rr.Code)
	}
}

// TestBatchSolveMetricsExposed: the khs_serve_batch_* set shows up in the
// Prometheus exposition after one batch.
func TestBatchSolveMetricsExposed(t *testing.T) {
	h := New(Config{}).Handler()
	postJSON(t, h, "/v1/solve:batch", batchRequest())
	body := getPath(h, "/metrics").Body.String()
	for _, want := range []string{
		"khs_serve_batch_size_count 1",
		"khs_serve_batch_seconds_count 1",
		`khs_serve_batch_items_total{model="hotspot-2d",outcome="ok"} 4`,
		`khs_serve_requests_total{code="200",route="POST /v1/solve:batch"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
