package core

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// sweepLambdas builds a small λ axis at the goldenSpec shape, spanning light
// load up to the variant's near-saturation point.
func sweepLambdas(name string) []float64 {
	top := nearSatLambda(name)
	base := goldenSpec(name).Lambda
	return []float64{base, top / 4, top / 2, top}
}

func batchSpecs(name string) []Spec {
	lams := sweepLambdas(name)
	specs := make([]Spec, len(lams))
	for i, lam := range lams {
		specs[i] = goldenSpec(name)
		specs[i].Lambda = lam
	}
	return specs
}

// TestSolveBatchBitIdenticalToIndependentSolves is the batch path's core
// contract: with warm starts off, each item is bit-for-bit the result of an
// independent Solve call — preparation reuse must not leak state between
// items.
func TestSolveBatchBitIdenticalToIndependentSolves(t *testing.T) {
	for _, name := range Solvers() {
		specs := batchSpecs(name)
		items, err := SolveBatch(name, specs, BatchOptions{})
		if err != nil {
			t.Fatalf("SolveBatch(%q): %v", name, err)
		}
		if len(items) != len(specs) {
			t.Fatalf("SolveBatch(%q): %d items for %d specs", name, len(items), len(specs))
		}
		for i, sp := range specs {
			want, err := Solve(name, sp, Options{})
			if err != nil {
				t.Fatalf("Solve(%q, λ=%g): %v", name, sp.Lambda, err)
			}
			got := items[i]
			if got.Err != nil {
				t.Errorf("%q item %d: %v", name, i, got.Err)
				continue
			}
			if math.Float64bits(got.Result.Latency) != math.Float64bits(want.Latency) {
				t.Errorf("%q item %d (λ=%g): batch latency %.17g, independent %.17g",
					name, i, sp.Lambda, got.Result.Latency, want.Latency)
			}
			if got.Result.Convergence != want.Convergence {
				t.Errorf("%q item %d: batch convergence %+v, independent %+v",
					name, i, got.Result.Convergence, want.Convergence)
			}
		}
	}
}

// TestSolveBatchMixedShapes exercises one batch spanning several topology
// shapes: preparation is keyed by shape, and revisiting a shape later in the
// batch must still reproduce the independent result exactly.
func TestSolveBatchMixedShapes(t *testing.T) {
	mk := func(k int, lam float64) Spec {
		return Spec{K: k, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: lam}
	}
	specs := []Spec{mk(16, 7.5e-5), mk(8, 1e-4), mk(16, 1.5e-4), mk(8, 2e-4), mk(16, 7.5e-5)}
	items, err := SolveBatch("hotspot-2d", specs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		want, err := Solve("hotspot-2d", sp, Options{})
		if err != nil {
			t.Fatalf("Solve(K=%d, λ=%g): %v", sp.K, sp.Lambda, err)
		}
		if items[i].Err != nil {
			t.Errorf("item %d: %v", i, items[i].Err)
			continue
		}
		if math.Float64bits(items[i].Result.Latency) != math.Float64bits(want.Latency) {
			t.Errorf("item %d (K=%d, λ=%g): batch %.17g, independent %.17g",
				i, sp.K, sp.Lambda, items[i].Result.Latency, want.Latency)
		}
	}
}

// TestPreparedSetBound: returned solvers stay idle while their summed
// footprint (state, workspace as grown, model scratch) fits maxIdleBytes;
// the return that overflows it evicts the least recently returned
// solvers, oldest first and only as many as it must. A held shape checks
// out the very solver returned for it, at any load, and a returned solver
// that cannot fit on its own is dropped without evicting anything.
func TestPreparedSetBound(t *testing.T) {
	set := NewPreparedSet()
	shape := func(k int) Spec { return Spec{K: k, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-6} }
	isIdle := func(ps *PreparedSolver) bool { return slices.Contains(set.idle, ps) }
	var idle []*PreparedSolver // what the pool should hold, in return order
	sum, evicted := 0, 0
	for k := 300; evicted == 0; k++ {
		ps, err := Prepare("hotspot-2d", shape(k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Solve(1e-6); err != nil {
			t.Fatal(err)
		}
		set.Put(ps)
		idle = append(idle, ps)
		sum += ps.footprint()
		for sum > maxIdleBytes {
			sum -= idle[0].footprint()
			idle = idle[1:]
			evicted++
		}
		if got := set.IdleBytes(); got != sum {
			t.Fatalf("K=%d: %d idle bytes, want %d", k, got, sum)
		}
		for _, h := range idle {
			if !isIdle(h) {
				t.Fatalf("K=%d: K=%d evicted with %d of %d bytes held", k, h.s.(*model).s.K, sum, maxIdleBytes)
			}
		}
	}
	if len(idle) < 2 {
		t.Fatalf("only %d shapes fit the bound; the test needs at least 2", len(idle))
	}
	newest := idle[len(idle)-1]
	probe := shape(newest.s.(*model).s.K)
	probe.Lambda = 2e-6
	if got := set.Get("hotspot-2d", probe, Options{}); got != newest {
		t.Errorf("Get at a new load did not check out the held solver of its shape")
	}
	if got := set.Get("hotspot-2d", probe, Options{}); got != nil {
		t.Errorf("a checked-out solver was handed out twice")
	}
	before := set.IdleBytes()
	// Saturated at once: the first round refuses, after the Anderson
	// workspace has grown to seven state vectors.
	big, err := Prepare("hotspot-2d", shape(maxTorusK), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Solve(0.01); !errors.Is(err, ErrSaturated) {
		t.Fatalf("K=%d at λ=0.01: %v, want ErrSaturated", maxTorusK, err)
	}
	if big.footprint() <= maxIdleBytes {
		t.Fatalf("K=%d holds %d bytes, within the %d-byte bound", maxTorusK, big.footprint(), maxIdleBytes)
	}
	set.Put(big)
	if isIdle(big) || set.IdleBytes() != before {
		t.Errorf("a solver larger than the bound was kept or evicted others: %d idle bytes, was %d",
			set.IdleBytes(), before)
	}
}

// TestPreparedSetCountBound: returned solvers of shapes that never
// repeat stay idle up to maxIdleSolvers however little they hold; each
// return past that evicts the least recently returned.
func TestPreparedSetCountBound(t *testing.T) {
	set := NewPreparedSet()
	var returned []*PreparedSolver
	for lm := 32; lm < 32+maxIdleSolvers+3; lm++ {
		ps, err := Prepare("uniform", Spec{K: 4, Dims: 2, V: 2, Lm: lm, Lambda: 1e-4}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Solve(1e-4); err != nil {
			t.Fatal(err)
		}
		set.Put(ps)
		returned = append(returned, ps)
	}
	if want := returned[3:]; !slices.Equal(set.idle, want) {
		t.Errorf("%d solvers idle, want the %d most recently returned in return order", len(set.idle), len(want))
	}
	if set.IdleBytes() > maxIdleBytes/100 {
		t.Errorf("%d idle bytes: the count bound, not the byte bound, should have evicted", set.IdleBytes())
	}
}

// TestSolveBatchPerItemErrors pins that bad items fail individually — an
// invalid shape, an invalid load, and a saturated load each land in their
// own item's Err while the surrounding items solve normally.
func TestSolveBatchPerItemErrors(t *testing.T) {
	good := goldenSpec("hotspot-2d")
	badShape := good
	badShape.K = 1 // K < 2 fails validation
	badLambda := good
	badLambda.Lambda = -1
	saturated := good
	saturated.Lambda = 1e-3 // beyond the saturation point at this shape
	specs := []Spec{good, badShape, badLambda, saturated, good}
	items, err := SolveBatch("hotspot-2d", specs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 4} {
		if items[i].Err != nil || items[i].Result == nil {
			t.Errorf("item %d: err %v, want clean solve", i, items[i].Err)
		}
	}
	var fe *FieldError
	if items[1].Err == nil || !errors.As(items[1].Err, &fe) || fe.Field != "k" {
		t.Errorf("bad-shape item err = %v, want FieldError on k", items[1].Err)
	}
	if items[2].Err == nil || !errors.As(items[2].Err, &fe) || fe.Field != "lambda" {
		t.Errorf("bad-lambda item err = %v, want FieldError on lambda", items[2].Err)
	}
	if !errors.Is(items[3].Err, ErrSaturated) {
		t.Errorf("saturated item err = %v, want ErrSaturated", items[3].Err)
	}
	if items[3].Result != nil {
		t.Errorf("saturated item carries a result: %+v", items[3].Result)
	}
}

func TestSolveBatchUnknownModel(t *testing.T) {
	if _, err := SolveBatch("torus-42", []Spec{goldenSpec("hotspot-2d")}, BatchOptions{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	items, err := SolveBatch("hotspot-2d", nil, BatchOptions{})
	if err != nil || len(items) != 0 {
		t.Errorf("empty batch: items %v, err %v", items, err)
	}
}

// TestPreparedSolverMatchesSolve pins the low-level prepared path: a cold
// re-solve at any λ is bit-identical to the one-shot driver, in any order.
func TestPreparedSolverMatchesSolve(t *testing.T) {
	for _, name := range Solvers() {
		ps, err := Prepare(name, goldenSpec(name), Options{})
		if err != nil {
			t.Fatalf("Prepare(%q): %v", name, err)
		}
		if ps.Name() != name {
			t.Errorf("Name() = %q, want %q", ps.Name(), name)
		}
		lams := sweepLambdas(name)
		// Descending then ascending: buffer reuse must not depend on order.
		for i := len(lams) - 1; i >= 0; i-- {
			lams = append(lams, lams[i])
		}
		for _, lam := range lams {
			sp := goldenSpec(name)
			sp.Lambda = lam
			want, err := Solve(name, sp, Options{})
			if err != nil {
				t.Fatalf("Solve(%q, λ=%g): %v", name, lam, err)
			}
			got, err := ps.Solve(lam)
			if err != nil {
				t.Fatalf("PreparedSolver.Solve(%q, λ=%g): %v", name, lam, err)
			}
			if math.Float64bits(got.Latency) != math.Float64bits(want.Latency) {
				t.Errorf("%q λ=%g: prepared %.17g, one-shot %.17g", name, lam, got.Latency, want.Latency)
			}
		}
		// Invalid λ surfaces through the prepared path too.
		if _, err := ps.Solve(-1); err == nil {
			t.Errorf("%q: negative λ accepted by prepared solver", name)
		}
	}
}

// TestWarmStartAgreesWithinTolerance pins SolveWarm's contract: seeded from
// the previous converged state it follows a different iteration path, so it
// matches the cold result only to within the solve tolerance — and it must
// take fewer rounds than the cold solve when the loads are close.
func TestWarmStartAgreesWithinTolerance(t *testing.T) {
	name := "hotspot-2d"
	lams := []float64{1.8e-4, 1.9e-4, 2.0e-4, 2.1e-4}
	ps, err := Prepare(name, goldenSpec(name), Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmIters, coldIters := 0, 0
	for i, lam := range lams {
		sp := goldenSpec(name)
		sp.Lambda = lam
		cold, err := Solve(name, sp, Options{})
		if err != nil {
			t.Fatalf("cold λ=%g: %v", lam, err)
		}
		warm, err := ps.SolveWarm(lam)
		if err != nil {
			t.Fatalf("warm λ=%g: %v", lam, err)
		}
		// The first warm solve has no seed and is exactly the cold solve.
		if i == 0 && math.Float64bits(warm.Latency) != math.Float64bits(cold.Latency) {
			t.Errorf("unseeded warm solve differs: %.17g vs %.17g", warm.Latency, cold.Latency)
		}
		if rel := math.Abs(warm.Latency-cold.Latency) / cold.Latency; rel > 1e-6 {
			t.Errorf("λ=%g: warm %.15g vs cold %.15g (rel %.3g)", lam, warm.Latency, cold.Latency, rel)
		}
		if i > 0 {
			warmIters += warm.Convergence.Iterations
			coldIters += cold.Convergence.Iterations
		}
	}
	if warmIters >= coldIters {
		t.Errorf("warm starts took %d iterations, cold %d — expected a reduction", warmIters, coldIters)
	}

	// The batch driver exposes the same opt-in.
	specs := make([]Spec, len(lams))
	for i, lam := range lams {
		specs[i] = goldenSpec(name)
		specs[i].Lambda = lam
	}
	items, err := SolveBatch(name, specs, BatchOptions{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("warm batch item %d: %v", i, it.Err)
		}
		cold, _ := Solve(name, specs[i], Options{})
		if rel := math.Abs(it.Result.Latency-cold.Latency) / cold.Latency; rel > 1e-6 {
			t.Errorf("warm batch item %d: rel diff %.3g", i, rel)
		}
	}
}
