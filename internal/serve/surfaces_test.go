package serve

import (
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"kncube/internal/core"
	"kncube/internal/surface"
	"kncube/internal/surface/shard"
	"kncube/internal/telemetry"
)

// testSurfaceRequest is a small, fast-building grid around a K=8, Lm=16
// torus: the h=0.3 row saturates mid-axis (λ≈3.5e-3), so the grid carries
// a real saturation frontier for the fallback paths.
func testSurfaceRequest() SurfaceRequest {
	lams := make([]float64, 14)
	for i := range lams {
		lams[i] = 2.5e-4 + 3.65e-4*float64(i)
	}
	return SurfaceRequest{
		K: 8, V: 2, Lm: 16,
		Hs:      []float64{0.1, 0.2, 0.3},
		Lambdas: lams,
	}
}

// waitSurfaceJob blocks until the build-job goroutine exits (white-box on
// the finished channel) and returns the final job view.
func waitSurfaceJob(t *testing.T, s *Server, h http.Handler, id string) SurfaceStatus {
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
	rr := getPath(h, "/v1/surfaces/"+id)
	if rr.Code != http.StatusOK {
		t.Fatalf("status fetch: %d, body %s", rr.Code, rr.Body.String())
	}
	return decodeBody[SurfaceStatus](t, rr)
}

// TestSurfaceLifecycle is the end-to-end surface contract: build a grid
// through POST /v1/surfaces, poll the job, list the inventory, then serve
// auto-mode and surface-mode solves through it — interpolated hits agree
// with the exact solver, out-of-grid and near-frontier queries fall back
// to it, and every outcome lands in the khs_surface_* metrics.
func TestSurfaceLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 42-point surface (~seconds)")
	}
	dir := t.TempDir()
	s := New(Config{SurfaceDir: dir})
	h := s.Handler()
	req := testSurfaceRequest()

	rr := postJSON(t, h, "/v1/surfaces", req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("build submission: %d, body %s, want 202", rr.Code, rr.Body.String())
	}
	st := decodeBody[SurfaceStatus](t, rr)
	if loc := rr.Header().Get("Location"); loc != "/v1/surfaces/"+st.ID {
		t.Errorf("Location = %q, want /v1/surfaces/%s", loc, st.ID)
	}
	if !strings.HasPrefix(st.ID, "build-") {
		t.Errorf("build job id = %q, want a build- id distinct from inventory ids", st.ID)
	}
	if st.Key == "" || st.Model != "hotspot-2d" || st.Total != 42 {
		t.Errorf("submission status %+v, want key, default model, 42-point total", st)
	}

	final := waitSurfaceJob(t, s, h, st.ID)
	if final.State != JobDone || final.SurfaceID == "" {
		t.Fatalf("final status %+v, want done with a surface id", final)
	}
	if final.Path == "" {
		t.Fatalf("built surface was not persisted despite SurfaceDir")
	}
	if _, err := os.Stat(final.Path); err != nil {
		t.Fatalf("persisted surface missing: %v", err)
	}

	// Inventory: one surface, coverage matching the requested grid.
	list := decodeBody[SurfaceList](t, getPath(h, "/v1/surfaces"))
	if len(list.Surfaces) != 1 || list.Shard != nil {
		t.Fatalf("inventory %+v, want one surface and no shard info when unsharded", list)
	}
	info := list.Surfaces[0]
	if info.ID != final.SurfaceID || info.Key != final.Key || info.Points != 42 {
		t.Errorf("inventory entry %+v does not match the build job %+v", info, final)
	}
	if info.Saturated == 0 || info.Saturated == info.Points {
		t.Errorf("surface has %d/%d saturated cells, want a real frontier", info.Saturated, info.Points)
	}
	byID := decodeBody[SurfaceInfo](t, getPath(h, "/v1/surfaces/"+final.SurfaceID))
	if byID.ID != info.ID || byID.Key != info.Key {
		t.Errorf("GET by surface id: %+v, want %+v", byID, info)
	}

	// Auto-mode solve on a grid row at off-grid λ: interpolated, cache
	// bypassed, and within 1% of the exact solver.
	offGrid := 0.5 * (req.Lambdas[2] + req.Lambdas[3])
	solveReq := SolveRequest{K: 8, V: 2, Lm: 16, H: 0.2, Lambda: offGrid,
		Options: &SolveOptions{Mode: ModeAuto}}
	resp := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", solveReq))
	if resp.Source != ModeSurface || resp.Cache != "bypass" || resp.SurfaceID != final.SurfaceID {
		t.Fatalf("auto-mode solve %+v, want a surface answer from %s", resp, final.SurfaceID)
	}
	exact, err := core.Solve("hotspot-2d", core.Spec{K: 8, V: 2, Lm: 16, H: 0.2, Lambda: offGrid}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(resp.Result.Latency-exact.Latency) / exact.Latency; rel > 1e-2 {
		t.Errorf("interpolated latency %g vs exact %g: rel error %.3g > 1e-2",
			resp.Result.Latency, exact.Latency, rel)
	}
	if resp.ErrorEstimate < 0 || resp.ErrorEstimate > 0.01 {
		t.Errorf("error estimate %g outside the auto-mode threshold", resp.ErrorEstimate)
	}
	if hits := s.Registry().Counter("khs_surface_lookups_total", "",
		telemetry.Labels{"outcome": "hit"}).Value(); hits != 1 {
		t.Errorf("khs_surface_lookups_total{outcome=hit} = %d, want 1", hits)
	}

	// Below the grid's λ axis: auto mode falls back to the exact solver.
	below := solveReq
	below.Lambda = req.Lambdas[0] / 4
	fb := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", below))
	if fb.Source != ModeExact || fb.Result == nil {
		t.Errorf("below-axis auto solve %+v, want an exact fallback with a result", fb)
	}
	if n := s.Registry().Counter("khs_surface_fallbacks_total", "",
		telemetry.Labels{"reason": "range"}).Value(); n != 1 {
		t.Errorf("range fallback counter = %d, want 1", n)
	}

	// Near the h=0.3 row's saturation frontier: surface mode refuses the
	// interpolation and the exact solver reports saturation — the 200
	// "no finite latency" answer, not an interpolated fiction.
	sat := SolveRequest{K: 8, V: 2, Lm: 16, H: 0.3, Lambda: req.Lambdas[len(req.Lambdas)-1],
		Options: &SolveOptions{Mode: ModeSurface}}
	satResp := decodeBody[SolveResponse](t, postJSON(t, h, "/v1/solve", sat))
	if satResp.Source != ModeExact || !satResp.Saturated {
		t.Errorf("near-frontier surface solve %+v, want exact saturated fallback", satResp)
	}
	if n := s.Registry().Counter("khs_surface_fallbacks_total", "",
		telemetry.Labels{"reason": "saturation"}).Value(); n != 1 {
		t.Errorf("saturation fallback counter = %d, want 1", n)
	}

	// Surface mode on a shape with no surface at all is the client's
	// error: 409, telling them to build one.
	none := SolveRequest{Model: "hypercube", K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
		Options: &SolveOptions{Mode: ModeSurface}}
	if rr := postJSON(t, h, "/v1/solve", none); rr.Code != http.StatusConflict {
		t.Errorf("surface-mode solve with no surface: %d, body %s, want 409", rr.Code, rr.Body.String())
	} else if resp := decodeBody[ErrorResponse](t, rr); !strings.Contains(resp.Error, "/v1/surfaces") {
		t.Errorf("409 body %q does not point at POST /v1/surfaces", resp.Error)
	}

	// Batch: one covered item interpolates, one below-axis item falls
	// back — per item, in one request.
	batch := BatchSolveRequest{Options: &SolveOptions{Mode: ModeAuto}, Items: []BatchSpec{
		{K: 8, V: 2, Lm: 16, H: 0.2, Lambda: offGrid},
		{K: 8, V: 2, Lm: 16, H: 0.2, Lambda: req.Lambdas[0] / 4},
	}}
	bresp := decodeBody[BatchSolveResponse](t, postJSON(t, h, "/v1/solve:batch", batch))
	if len(bresp.Items) != 2 {
		t.Fatalf("batch items = %d, want 2", len(bresp.Items))
	}
	if it := bresp.Items[0]; it.Status != "ok" || it.Source != ModeSurface || it.SurfaceID != final.SurfaceID {
		t.Errorf("covered batch item %+v, want an interpolated answer", it)
	}
	if it := bresp.Items[1]; it.Status != "ok" || it.Source != ModeExact || it.Cache == "" {
		t.Errorf("below-axis batch item %+v, want an exact fallback through the cache", it)
	}

	// The build job is not a sweep: the sweep endpoints must not see it.
	if rr := getPath(h, "/v1/sweeps/"+st.ID); rr.Code != http.StatusNotFound {
		t.Errorf("GET /v1/sweeps/%s = %d, want 404", st.ID, rr.Code)
	}
}

// TestSurfaceValidation: bad build requests come back as structured 400s,
// and a bad solve mode names options.mode.
func TestSurfaceValidation(t *testing.T) {
	h := New(Config{}).Handler()

	descending := testSurfaceRequest()
	descending.Hs = []float64{0.3, 0.2}
	onePoint := testSurfaceRequest()
	onePoint.Lambdas = onePoint.Lambdas[:1]
	badModel := testSurfaceRequest()
	badModel.Model = "no-such-model"
	withMode := testSurfaceRequest()
	withMode.Options = &SolveOptions{Mode: ModeAuto}
	badShape := testSurfaceRequest()
	badShape.K = 1
	huge := testSurfaceRequest()
	huge.Hs = make([]float64, 0, 40)
	for i := 0; i < 40; i++ {
		huge.Hs = append(huge.Hs, 0.01*float64(i))
	}
	huge.Lambdas = make([]float64, 0, 500)
	for i := 0; i < 500; i++ {
		huge.Lambdas = append(huge.Lambdas, 1e-5*float64(i+1))
	}

	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"descending h axis", descending, "grid"},
		{"single-point lambda axis", onePoint, "grid"},
		{"unknown model", badModel, "model"},
		{"mode in a build request", withMode, "options.mode"},
		{"invalid shape", badShape, "k"},
		{"grid beyond the cell cap", huge, "grid"},
		{"unknown json field", map[string]any{"hs": []float64{0.1}, "lambdas": []float64{1e-4, 2e-4}, "kk": 1}, "body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := postJSON(t, h, "/v1/surfaces", tc.body)
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", rr.Code, rr.Body.String())
			}
			resp := decodeBody[ErrorResponse](t, rr)
			if len(resp.Fields) == 0 || resp.Fields[0].Field != tc.field {
				t.Errorf("fields = %+v, want first field %q", resp.Fields, tc.field)
			}
		})
	}

	req := figureRequest()
	req.Options = &SolveOptions{Mode: "psychic"}
	rr := postJSON(t, h, "/v1/solve", req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", rr.Code)
	}
	if resp := decodeBody[ErrorResponse](t, rr); len(resp.Fields) == 0 || resp.Fields[0].Field != "options.mode" {
		t.Errorf("bad mode fields = %+v, want options.mode", resp.Fields)
	}

	if rr := getPath(h, "/v1/surfaces/build-999999"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown surface id: status %d, want 404", rr.Code)
	}
}

// splitShapes finds, by walking the radix, the K of one hotspot-2d
// (V 2, Lm 16) shape the replica self owns on the ring of peers and one
// another replica owns. Shape keys are canonical, like solve-cache keys:
// Dims omitted and Dims 2 are one key, so both spellings have the same
// owner.
func splitShapes(t *testing.T, self string, peers []string) (ownedK, foreignK int) {
	t.Helper()
	ring := shard.New(self, peers, 0)
	for k := 4; k <= 40 && (ownedK == 0 || foreignK == 0); k += 2 {
		d := surface.Def{Model: "hotspot-2d", K: k, V: 2, Lm: 16}
		spelled := d
		spelled.Dims = 2
		if d.Key() != spelled.Key() || ring.Owner(d.Key()) != ring.Owner(spelled.Key()) {
			t.Fatalf("K=%d: Dims omitted (%s) and Dims 2 (%s) key or shard differently", k, d.Key(), spelled.Key())
		}
		if ring.Owns(d.Key()) {
			if ownedK == 0 {
				ownedK = k
			}
		} else if foreignK == 0 {
			foreignK = k
		}
	}
	if ownedK == 0 || foreignK == 0 {
		t.Fatalf("ring never split ownership across the probed shapes")
	}
	return ownedK, foreignK
}

// TestSurfaceSharding: with a configured ring, builds for shapes another
// replica owns are refused with 421 naming the owner, and the inventory
// reports the membership.
func TestSurfaceSharding(t *testing.T) {
	self, peers := "replica-a", []string{"replica-a", "replica-b"}
	ownedK, foreignK := splitShapes(t, self, peers)

	s := New(Config{ShardID: self, ShardPeers: peers})
	h := s.Handler()

	foreign := testSurfaceRequest()
	foreign.K = foreignK
	rr := postJSON(t, h, "/v1/surfaces", foreign)
	if rr.Code != http.StatusMisdirectedRequest {
		t.Fatalf("foreign-shape build: %d, body %s, want 421", rr.Code, rr.Body.String())
	}
	if resp := decodeBody[ErrorResponse](t, rr); !strings.Contains(resp.Error, "replica-b") {
		t.Errorf("421 body %q does not name the owning replica", resp.Error)
	}

	// A surface-mode solve for an unbuilt foreign shape is likewise
	// misdirected — the owner, not this replica, would hold its surface.
	solve := SolveRequest{K: foreignK, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4,
		Options: &SolveOptions{Mode: ModeSurface}}
	if rr := postJSON(t, h, "/v1/solve", solve); rr.Code != http.StatusMisdirectedRequest {
		t.Errorf("foreign-shape surface solve: %d, want 421", rr.Code)
	}
	solve.Dims = 2
	if rr := postJSON(t, h, "/v1/solve", solve); rr.Code != http.StatusMisdirectedRequest {
		t.Errorf("foreign-shape surface solve with Dims 2: %d, want 421", rr.Code)
	} else if resp := decodeBody[ErrorResponse](t, rr); !strings.Contains(resp.Error, "replica-b") {
		t.Errorf("421 body %q does not name the owning replica", resp.Error)
	}
	owned := solve
	owned.K = ownedK
	if rr := postJSON(t, h, "/v1/solve", owned); rr.Code != http.StatusConflict {
		t.Errorf("owned-shape surface solve with no surface: %d, want 409", rr.Code)
	}

	// The same two specs as surface-mode batch items: per-item errors
	// inside a 200, the foreign one naming its owner, the owned one not.
	batch := BatchSolveRequest{Options: solve.Options, Items: []BatchSpec{
		{K: foreignK, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4},
		{K: ownedK, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4},
	}}
	rr = postJSON(t, h, "/v1/solve:batch", batch)
	if rr.Code != http.StatusOK {
		t.Fatalf("surface-mode batch: %d, body %s, want 200", rr.Code, rr.Body.String())
	}
	items := decodeBody[BatchSolveResponse](t, rr).Items
	if it := items[0]; it.Status != "error" || !strings.Contains(it.Detail, `owned by replica "replica-b"`) {
		t.Errorf("foreign-shape surface-mode batch item %+v, want an error naming replica-b", it)
	}
	if it := items[1]; it.Status != "error" || strings.Contains(it.Detail, "replica") ||
		!strings.Contains(it.Detail, "no surface covers") {
		t.Errorf("owned-shape surface-mode batch item %+v, want a no-surface error naming no replica", it)
	}

	list := decodeBody[SurfaceList](t, getPath(h, "/v1/surfaces"))
	if list.Shard == nil || list.Shard.Self != self || len(list.Shard.Nodes) != 2 {
		t.Errorf("shard info %+v, want self %q over 2 nodes", list.Shard, self)
	}
}

// TestLoadSurfaces: surfaces persisted by a previous process are loaded
// at startup and serve surface-mode solves immediately.
func TestLoadSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small surface directly")
	}
	dir := t.TempDir()
	// The surface is built with Dims omitted and queried with Dims 2:
	// shape keys, like solve-cache keys, are canonical, so the query's
	// spelled-out default finds the surface.
	d := surface.Def{
		Model: "hotspot-2d", K: 8, V: 2, Lm: 16,
		Hs:      []float64{0.1, 0.2},
		Lambdas: []float64{5e-5, 1e-4, 1.5e-4, 2e-4, 2.5e-4, 3e-4},
	}
	sfc, err := surface.Build(d, surface.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := surface.WriteFile(dir, sfc); err != nil {
		t.Fatal(err)
	}

	s := New(Config{SurfaceDir: dir})
	n, err := s.LoadSurfaces()
	if err != nil || n != 1 {
		t.Fatalf("LoadSurfaces = %d, %v, want 1 surface", n, err)
	}
	req := SolveRequest{K: 8, Dims: 2, V: 2, Lm: 16, H: 0.15, Lambda: 1.25e-4,
		Options: &SolveOptions{Mode: ModeSurface}}
	resp := decodeBody[SolveResponse](t, postJSON(t, s.Handler(), "/v1/solve", req))
	if resp.Source != ModeSurface || resp.Result == nil {
		t.Errorf("solve after load %+v, want a surface answer", resp)
	}
}

// TestModelsEndpoint: GET /v1/models lists every registered variant with
// the constraints its validation enforces.
func TestModelsEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	rr := getPath(h, "/v1/models")
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	resp := decodeBody[ModelsResponse](t, rr)
	if len(resp.Models) != len(core.Solvers()) {
		t.Fatalf("models = %d, want %d", len(resp.Models), len(core.Solvers()))
	}
	for _, m := range resp.Models {
		fields := map[string]bool{}
		for _, c := range m.Constraints {
			if c.Reason == "" {
				t.Errorf("%s: constraint %q has no reason", m.Name, c.Field)
			}
			fields[c.Field] = true
		}
		for _, want := range []string{"k", "v", "lm", "h", "lambda"} {
			if !fields[want] {
				t.Errorf("%s: no constraint reported for field %q (got %v)", m.Name, want, m.Constraints)
			}
		}
	}
}
