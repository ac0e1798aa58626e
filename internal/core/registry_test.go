package core

import (
	"bufio"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"kncube/internal/fixpoint"

	"kncube/internal/stats"
)

func TestSolversRegistered(t *testing.T) {
	want := []string{"bidirectional-2d", "hotspot-2d", "hypercube", "ndim", "uniform"}
	got := Solvers()
	if len(got) != len(want) {
		t.Fatalf("Solvers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Solvers() = %v, want %v", got, want)
		}
	}
}

func TestUnknownSolverName(t *testing.T) {
	_, err := Solve("no-such-model", Spec{K: 8, V: 2, Lm: 16, Lambda: 1e-4}, Options{})
	if err == nil {
		t.Fatal("unknown solver name should fail")
	}
	if !strings.Contains(err.Error(), "no-such-model") {
		t.Errorf("error should name the unknown solver: %v", err)
	}
	// The error lists the registered names so the caller can self-correct.
	if !strings.Contains(err.Error(), "hotspot-2d") {
		t.Errorf("error should list registered solvers: %v", err)
	}
}

// noRules and noFactory stand in for a variant's rules and factory in the
// registration tests, which never build a solver.
func noRules(Spec) error             { return nil }
func noFactory(Spec, Options) Solver { return nil }

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register("hotspot-2d", Spec{}, noRules, noFactory)
}

func TestRegisterRejectsBadArguments(t *testing.T) {
	for name, reg := range map[string]func(){
		"empty name":  func() { Register("", Spec{}, noRules, noFactory) },
		"nil rules":   func() { Register("x-test-nil", Spec{}, nil, noFactory) },
		"nil factory": func() { Register("x-test-nil", Spec{}, noRules, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			reg()
		}()
	}
}

// goldenSpec is the common operating point the regression latencies below
// are pinned at (the first published load point of panel fig1-h20; the
// hypercube takes the 2-ary 8-cube of comparable size, the uniform
// baseline the same network without a hot-spot class).
func goldenSpec(name string) Spec {
	switch name {
	case "uniform":
		return Spec{K: 16, V: 2, Lm: 32, H: 0, Lambda: 7.5e-5}
	case "hypercube":
		return Spec{K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5}
	default:
		return Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5}
	}
}

// Golden regression: every registered solver's latency at one fixed
// operating point, pinned to within 1e-9. A deliberate model change must
// update these constants (and, for hotspot-2d, regenerate results/*.csv).
func TestGoldenLatencies(t *testing.T) {
	golden := map[string]float64{
		"hotspot-2d":       50.279061335354442,
		"bidirectional-2d": 40.892751666105696,
		"uniform":          49.472803144346962,
		"hypercube":        36.134132103352172,
		"ndim":             49.374738345732801,
	}
	for _, name := range Solvers() {
		want, ok := golden[name]
		if !ok {
			t.Errorf("no golden latency recorded for solver %q — add one here", name)
			continue
		}
		r, err := Solve(name, goldenSpec(name), Options{})
		if err != nil {
			t.Errorf("Solve(%q): %v", name, err)
			continue
		}
		if math.Abs(r.Latency-want) > 1e-9 {
			t.Errorf("Solve(%q) latency = %.15g, want %.15g (|diff| %.3g)",
				name, r.Latency, want, math.Abs(r.Latency-want))
		}
		if r.Convergence.Iterations <= 0 || !r.Convergence.Converged {
			t.Errorf("Solve(%q) convergence not populated: %+v", name, r.Convergence)
		}
		if u := r.MaxUtilisation; !(u > 0) || math.IsInf(u, 0) {
			t.Errorf("Solve(%q) max utilisation %v, want finite and > 0", name, u)
		}
	}
}

// TestMaxUtilisationEveryVariant: every variant reports the busiest
// channel's holding-time utilisation, finite, positive and strictly
// rising with the load; hotspot-2d's is pinned bit for bit on either side
// of the fig1-h20 knee, where it crosses 1.
func TestMaxUtilisationEveryVariant(t *testing.T) {
	loads := map[string][3]float64{
		"hotspot-2d":       {2.5e-5, 5e-5, 1e-4},
		"bidirectional-2d": {2.5e-5, 5e-5, 1e-4},
		"uniform":          {1e-4, 2e-4, 4e-4},
		"hypercube":        {2.5e-5, 5e-5, 1e-4},
		"ndim":             {2.5e-5, 5e-5, 1e-4},
	}
	for _, name := range Solvers() {
		lams, ok := loads[name]
		if !ok {
			t.Errorf("no loads recorded for solver %q — add them here", name)
			continue
		}
		prev := 0.0
		for _, lam := range lams {
			s := goldenSpec(name)
			s.Lambda = lam
			u := mustSolve(t, name, s, Options{}).MaxUtilisation
			if !(u > prev) || math.IsInf(u, 0) {
				t.Errorf("%s at λ=%v: max utilisation %v, want finite and above %v", name, lam, u, prev)
			}
			prev = u
		}
	}
	for _, c := range []struct{ lambda, want float64 }{
		{2.25e-4, 0.44722290924550356},
		{3e-4, 1.301577483950161},
	} {
		r := mustSolve(t, "hotspot-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: c.lambda}, Options{})
		if math.Float64bits(r.MaxUtilisation) != math.Float64bits(c.want) {
			t.Errorf("hotspot-2d at λ=%v: max utilisation %.17g, want %.17g", c.lambda, r.MaxUtilisation, c.want)
		}
	}
}

// The hotspot-2d golden constant must itself agree with the published CSV
// (results/fig1-h20.csv, first data row) to the file's printed precision —
// the cross-check that ties the in-repo regression to the published
// reproducibility contract.
func TestGoldenMatchesPublishedCSV(t *testing.T) {
	f, err := os.Open("../../results/fig1-h20.csv")
	if err != nil {
		t.Skipf("published CSV not available: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() { // header
		t.Fatal("empty CSV")
	}
	if !sc.Scan() {
		t.Fatal("CSV has no data rows")
	}
	fields := strings.Split(sc.Text(), ",")
	lambda, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve("hotspot-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: lambda}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The CSV prints 4 decimals; allow half an ulp of that precision.
	if math.Abs(r.Latency-want) > 5e-5+1e-12 {
		t.Errorf("hotspot-2d at lambda=%g: latency %.6f, published %.4f", lambda, r.Latency, want)
	}
}

// The Trace callback must fire exactly once per iteration for every
// variant solved through the registry, and the final record must agree
// with the Convergence summary.
func TestTraceFiresOncePerIteration(t *testing.T) {
	for _, name := range Solvers() {
		var records []fixpoint.TraceRecord
		opts := Options{FixPoint: fixpoint.Options{
			Trace: func(r fixpoint.TraceRecord) { records = append(records, r) },
		}}
		res, err := Solve(name, goldenSpec(name), opts)
		if err != nil {
			t.Errorf("Solve(%q): %v", name, err)
			continue
		}
		if len(records) != res.Convergence.Iterations {
			t.Errorf("%q: %d trace records, want %d (one per iteration)",
				name, len(records), res.Convergence.Iterations)
			continue
		}
		last := records[len(records)-1]
		if last.Iteration != res.Convergence.Iterations {
			t.Errorf("%q: last trace iteration %d, want %d", name, last.Iteration, res.Convergence.Iterations)
		}
		if !stats.ApproxEqual(last.MaxRelDelta, res.Convergence.Residual, 0, 0) {
			t.Errorf("%q: last trace delta %g, want residual %g", name, last.MaxRelDelta, res.Convergence.Residual)
		}
		for i, r := range records {
			if r.Iteration != i+1 {
				t.Errorf("%q: record %d has iteration %d", name, i, r.Iteration)
				break
			}
			if r.NonFiniteIndex != -1 {
				t.Errorf("%q: converged run reported non-finite index %d", name, r.NonFiniteIndex)
				break
			}
		}
	}
}

// A solve classified as saturated because the iteration budget ran out
// must still have delivered one trace record per completed round — the
// observability layer is exactly what a caller needs to diagnose it.
func TestTraceSurvivesSaturation(t *testing.T) {
	calls := 0
	opts := Options{FixPoint: fixpoint.Options{
		Tolerance: 1e-9, MaxIterations: 5, Damping: 0.5,
		Trace: func(fixpoint.TraceRecord) { calls++ },
	}}
	// 3e-4 converges in 13 rounds under the default scheme, so 5 rounds
	// exhaust the budget and classify as saturation.
	s := Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 3e-4}
	_, err := Solve("hotspot-2d", s, opts)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("exhausted iteration budget should classify as saturation, got %v", err)
	}
	if calls != 5 {
		t.Errorf("got %d trace records, want one per round (5)", calls)
	}
}

// TestCanonicalSpec pins the registry's canonical form: a zero K or Dims
// stands for the variant's default, Canonical spells it out, and both
// spellings solve bit-identically.
func TestCanonicalSpec(t *testing.T) {
	cases := []struct {
		name       string
		short, out Spec
	}{
		{"hotspot-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},
		{"bidirectional-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},
		{"uniform", Spec{K: 16, V: 2, Lm: 32, Lambda: 1e-4}, Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1e-4}},
		{"ndim", Spec{K: 8, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, Spec{K: 8, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},
		{"hypercube", Spec{Dims: 6, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}, Spec{K: 2, Dims: 6, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},
	}
	for _, tc := range cases {
		if got := Canonical(tc.name, tc.short); got != tc.out {
			t.Errorf("Canonical(%q, %+v) = %+v, want %+v", tc.name, tc.short, got, tc.out)
		}
		if got := Canonical(tc.name, tc.out); got != tc.out {
			t.Errorf("Canonical(%q) is not idempotent: %+v -> %+v", tc.name, tc.out, got)
		}
		a, err := Solve(tc.name, tc.short, Options{})
		if err != nil {
			t.Fatalf("Solve(%q, %+v): %v", tc.name, tc.short, err)
		}
		b, err := Solve(tc.name, tc.out, Options{})
		if err != nil {
			t.Fatalf("Solve(%q, %+v): %v", tc.name, tc.out, err)
		}
		if math.Float64bits(a.Latency) != math.Float64bits(b.Latency) || a.Convergence != b.Convergence {
			t.Errorf("%q: the two spellings solve differently: %v vs %v", tc.name, a.Latency, b.Latency)
		}
	}
	// Only the zero value is a default: other values pass through, for the
	// factory to accept or reject.
	odd := Spec{K: 16, Dims: 3, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}
	if got := Canonical("hotspot-2d", odd); got != odd {
		t.Errorf("Canonical rewrote an explicit Dims: %+v", got)
	}
	if got := Canonical("no-such-model", Spec{K: 16}); got != (Spec{K: 16}) {
		t.Errorf("Canonical of an unknown model changed the spec: %+v", got)
	}
}

// Factory compatibility rules: specs a variant cannot represent are
// rejected with a clear error rather than silently reinterpreted.
func TestFactoryCompatibility(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"uniform", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},     // has a hot-spot class
		{"hypercube", Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1e-4}},  // not 2-ary
		{"hotspot-2d", Spec{K: 16, Dims: 3, V: 2, Lm: 32, Lambda: 1e-4}}, // not 2-D
		{"bidirectional-2d", Spec{K: 16, Dims: 3, V: 2, Lm: 32, Lambda: 1e-4}},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.name, tc.spec, Options{}); err == nil {
			t.Errorf("Solve(%q, %+v) should reject the spec", tc.name, tc.spec)
		}
	}
}
