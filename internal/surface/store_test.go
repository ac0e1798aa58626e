package surface_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kncube/internal/core"
	"kncube/internal/surface"
	"kncube/internal/telemetry"
)

func storeCounter(reg *telemetry.Registry, name string, labels telemetry.Labels) int64 {
	return reg.Counter(name, "", labels).Value()
}

// TestStoreLookupOutcomes: hits, misses, and each fallback reason are
// routed and counted correctly.
func TestStoreLookupOutcomes(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := surface.NewStore(reg)
	s := smallSurface(t)
	e := st.Add(s, "")
	if e.ID == "" {
		t.Fatalf("Add assigned no id")
	}

	d := s.Def
	spec := core.Spec{K: d.K, Dims: d.Dims, V: d.V, Lm: d.Lm,
		H: 0.15, Lambda: 0.5 * (d.Lambdas[2] + d.Lambdas[3])}

	// Hit.
	lk, hit, err := st.Lookup(d.Model, spec, core.Options{}, surface.LookupOptions{})
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if hit == nil || hit.ID != e.ID {
		t.Fatalf("Lookup did not attribute the answer to the stored surface")
	}
	if !(lk.Latency > 0) {
		t.Fatalf("Lookup latency %g, want > 0", lk.Latency)
	}
	if got := storeCounter(reg, "khs_surface_lookups_total", telemetry.Labels{"outcome": "hit"}); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}

	// Miss: different shape key (other model).
	if _, _, err := st.Lookup("uniform", spec, core.Options{}, surface.LookupOptions{}); !errors.Is(err, surface.ErrNoSurface) {
		t.Errorf("other-model lookup: want ErrNoSurface, got %v", err)
	}
	// Miss: same shape, different result-affecting options.
	if _, _, err := st.Lookup(d.Model, spec, core.Options{Blocking: core.BlockingMultiServer}, surface.LookupOptions{}); !errors.Is(err, surface.ErrNoSurface) {
		t.Errorf("other-options lookup: want ErrNoSurface, got %v", err)
	}

	// Fallback: out of grid range.
	out := spec
	out.Lambda = d.Lambdas[0] / 4
	if _, _, err := st.Lookup(d.Model, out, core.Options{}, surface.LookupOptions{}); !errors.Is(err, surface.ErrOutOfRange) {
		t.Errorf("below-axis lookup: want ErrOutOfRange, got %v", err)
	}
	if got := storeCounter(reg, "khs_surface_fallbacks_total", telemetry.Labels{"reason": "range"}); got != 1 {
		t.Errorf("range fallback counter = %d, want 1", got)
	}

	// Fallback: near the saturation frontier (smallSurface's axis
	// extends past saturation, so the axis top is behind a frontier).
	sat := spec
	sat.H = 0.3
	sat.Lambda = d.Lambdas[len(d.Lambdas)-1]
	if _, _, err := st.Lookup(d.Model, sat, core.Options{}, surface.LookupOptions{}); !errors.Is(err, surface.ErrNearSaturation) {
		t.Errorf("near-frontier lookup: want ErrNearSaturation, got %v", err)
	}
	if got := storeCounter(reg, "khs_surface_fallbacks_total", telemetry.Labels{"reason": "saturation"}); got != 1 {
		t.Errorf("saturation fallback counter = %d, want 1", got)
	}

	// Fallback: estimate bound. An absurdly small bound rejects any
	// interpolated answer with nonzero curvature.
	if _, _, err := st.Lookup(d.Model, spec, core.Options{}, surface.LookupOptions{MaxErrEstimate: 1e-18}); !errors.Is(err, surface.ErrEstimateTooHigh) {
		t.Errorf("tiny error bound: want ErrEstimateTooHigh, got %v", err)
	}
	if got := storeCounter(reg, "khs_surface_fallbacks_total", telemetry.Labels{"reason": "estimate"}); got != 1 {
		t.Errorf("estimate fallback counter = %d, want 1", got)
	}
}

// TestStoreListGetKeys: inventory accessors reflect adds in order.
func TestStoreListGetKeys(t *testing.T) {
	st := surface.NewStore(nil)
	a := st.Add(smallSurface(t), "/tmp/a")
	b := st.Add(smallSurface(t), "")
	if st.Get(a.ID) != a || st.Get(b.ID) != b {
		t.Fatalf("Get does not return stored entries")
	}
	if st.Get("surface-999999") != nil {
		t.Fatalf("Get invented an entry")
	}
	list := st.List()
	if len(list) != 2 || list[0].ID != a.ID || list[1].ID != b.ID {
		t.Fatalf("List = %v, want [%s %s]", list, a.ID, b.ID)
	}
	keys := st.Keys()
	if len(keys) != 1 {
		t.Fatalf("Keys = %v, want one shared shape key", keys)
	}
}

// TestStoreObserveBuild: build accounting lands on the right states.
func TestStoreObserveBuild(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := surface.NewStore(reg)
	st.ObserveBuild(time.Second, nil)
	st.ObserveBuild(time.Second, errors.New("boom"))
	if got := storeCounter(reg, "khs_surface_builds_total", telemetry.Labels{"state": "ok"}); got != 1 {
		t.Errorf("ok builds = %d, want 1", got)
	}
	if got := storeCounter(reg, "khs_surface_builds_total", telemetry.Labels{"state": "error"}); got != 1 {
		t.Errorf("error builds = %d, want 1", got)
	}
}

// TestStoreLoadDir: surfaces persisted with WriteFile load back;
// corrupt files fail the whole load; a missing directory is empty.
func TestStoreLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := smallSurface(t)
	if _, err := surface.WriteFile(dir, s); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	st := surface.NewStore(nil)
	entries, err := st.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Path == "" {
		t.Fatalf("LoadDir entries = %v, want one pathed entry", entries)
	}
	d := s.Def
	spec := core.Spec{K: d.K, Dims: d.Dims, V: d.V, Lm: d.Lm,
		H: 0.15, Lambda: 0.5 * (d.Lambdas[2] + d.Lambdas[3])}
	if _, _, err := st.Lookup(d.Model, spec, core.Options{}, surface.LookupOptions{}); err != nil {
		t.Fatalf("Lookup after LoadDir: %v", err)
	}

	if _, err := surface.NewStore(nil).LoadDir(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("missing dir should be empty, got %v", err)
	}

	// A corrupt file in the directory fails the load loudly.
	if err := os.WriteFile(filepath.Join(dir, "junk"+surface.FileExt), []byte("not a surface"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := surface.NewStore(nil).LoadDir(dir); err == nil {
		t.Fatalf("LoadDir accepted a corrupt file")
	}
}
