package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kncube/internal/core"
)

// TestPreparedPoolSoak runs concurrent batch requests over shared shapes
// through one server with its solve cache off, so every item checks a
// solver out of the server's pool; every third request's client goes
// away while it runs (run it under -race). Every item answered is bit for
// bit core.Solve's, whichever request prepared or last used its solver, a
// cancelled request answers 503 or, when it finished first, 200, and the
// pool ends holding the shapes within its bound.
func TestPreparedPoolSoak(t *testing.T) {
	s := New(Config{CacheSize: -1, MaxInflight: 8, RuntimeMetricsInterval: -1})
	h := s.Handler()
	var specs []BatchSpec
	for _, k := range []int{8, 16} {
		for _, lam := range []float64{5e-5, 1e-4, 1.5e-4, 2e-4} {
			specs = append(specs, BatchSpec{K: k, V: 2, Lm: 32, H: 0.2, Lambda: lam})
		}
	}
	want := make([]*SolveResult, len(specs))
	for i, bs := range specs {
		res, err := core.Solve("hotspot-2d", core.Spec{K: bs.K, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = toAPIResult(res)
	}

	const workers, batches = 4, 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				// Each request walks the specs from its own offset.
				var req BatchSolveRequest
				order := make([]int, len(specs))
				for j := range specs {
					order[j] = (w*3 + b + j) % len(specs)
					req.Items = append(req.Items, specs[order[j]])
				}
				raw, err := json.Marshal(req)
				if err != nil {
					fail("%v", err)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancelled := (w+b)%3 == 0
				if cancelled {
					go func() {
						time.Sleep(time.Duration(b) * 200 * time.Microsecond)
						cancel()
					}()
				}
				hr := httptest.NewRequest("POST", "/v1/solve:batch", strings.NewReader(string(raw))).WithContext(ctx)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, hr)
				cancel()
				switch {
				case cancelled && rr.Code == http.StatusServiceUnavailable:
					continue
				case rr.Code != http.StatusOK:
					fail("worker %d batch %d: status %d, body %s", w, b, rr.Code, rr.Body.String())
					continue
				}
				var resp BatchSolveResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
					fail("worker %d batch %d: %v", w, b, err)
					continue
				}
				for j, it := range resp.Items {
					if i := order[j]; it.Status != "ok" || !reflect.DeepEqual(it.Result, want[i]) {
						fail("worker %d batch %d item %d (K=%d λ=%g): %s %+v, core.Solve %+v",
							w, b, j, specs[i].K, specs[i].Lambda, it.Status, it.Result, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	if idle := s.prepared.IdleBytes(); idle <= 0 || idle > 64<<20 {
		t.Errorf("the pool ends holding %d idle bytes, want some, within 64 MiB", idle)
	}
}
