package surface_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"kncube/internal/core"
	"kncube/internal/fixpoint"
	"kncube/internal/surface"
)

// evalRelBound is the enforced relative-error bound for interpolated
// lookups against exact solves at off-grid query points, on the test
// grids below. DESIGN.md §12 documents the bound's provenance.
const evalRelBound = 1e-2

// nearSatLambda mirrors the solver benchmarks: an offered load close to
// (but below) saturation at the variant's test shape.
func nearSatLambda(name string) float64 {
	switch name {
	case "uniform":
		return 1.5e-3
	case "hypercube":
		return 1.05e-3
	case "bidirectional-2d":
		return 4.0e-4
	default: // hotspot-2d, ndim
		return 2.2e-4
	}
}

// lambdaAxis is a 41-point linear axis from 5% of top to top — dense
// enough that the monotone cubic stays within the enforced bound on the
// knee of the latency curve.
func lambdaAxis(top float64) []float64 {
	lams := make([]float64, 41)
	for i := range lams {
		lams[i] = top * (0.05 + 0.95*float64(i)/float64(len(lams)-1))
	}
	return lams
}

// hAxis is a 17-point axis over [0.1, 0.3] — dense enough (spacing
// 0.0125) that the linear h blend stays within the enforced bound even
// for the hypercube's strongly h-curved hot-class latency.
func hAxis() []float64 {
	hs := make([]float64, 17)
	for i := range hs {
		hs[i] = 0.1 + 0.0125*float64(i)
	}
	return hs
}

// testDef is each variant's surface definition at its benchmark shape.
// The uniform baseline models no hot-spot class, so its h axis is the
// single point 0.
func testDef(name string) surface.Def {
	d := surface.Def{
		Model: name, K: 16, Dims: 2, V: 2, Lm: 32,
		Hs:      hAxis(),
		Lambdas: lambdaAxis(nearSatLambda(name)),
	}
	switch name {
	case "uniform":
		d.Hs = []float64{0}
	case "hypercube":
		d.K, d.Dims = 2, 8
	}
	return d
}

func buildTestSurface(t *testing.T, name string) *surface.Surface {
	t.Helper()
	s, err := surface.Build(testDef(name), surface.BuildOptions{})
	if err != nil {
		t.Fatalf("Build(%q): %v", name, err)
	}
	return s
}

// queryHs picks off-grid and on-knot h query points for a variant.
func queryHs(name string) []float64 {
	if name == "uniform" {
		return []float64{0}
	}
	return []float64{0.2, 0.17, 0.22, 0.28}
}

// TestEvalMatchesExactSolveAllVariants is the subsystem's accuracy
// pin: for every registered variant, interpolated lookups at off-grid
// (h, λ) points agree with the exact solver on the whole latency
// decomposition to within evalRelBound.
func TestEvalMatchesExactSolveAllVariants(t *testing.T) {
	for _, name := range core.Solvers() {
		s := buildTestSurface(t, name)
		d := s.Def
		for _, h := range queryHs(name) {
			// Off-grid loads: interior cell midpoints well below the
			// guard cell of every row.
			for _, ci := range []int{4, 12, 20} {
				lambda := 0.5 * (d.Lambdas[ci] + d.Lambdas[ci+1])
				got, err := s.Eval(h, lambda)
				if err != nil {
					t.Errorf("%q Eval(h=%v, λ=%g): %v", name, h, lambda, err)
					continue
				}
				spec := core.Spec{K: d.K, Dims: d.Dims, V: d.V, Lm: d.Lm, H: h, Lambda: lambda}
				want, err := core.Solve(name, spec, core.Options{})
				if err != nil {
					t.Fatalf("%q exact Solve(h=%v, λ=%g): %v", name, h, lambda, err)
				}
				checkRel(t, name, "latency", h, lambda, got.Latency, want.Latency)
				checkRel(t, name, "regular", h, lambda, got.Regular, want.Regular)
				checkRel(t, name, "hot", h, lambda, got.Hot, want.Hot)
				checkRel(t, name, "source_wait", h, lambda, got.SourceWait, want.SourceWait)
				checkRel(t, name, "vbar", h, lambda, got.VBar, want.VBar)
				if got.ErrEstimate < 0 {
					t.Errorf("%q Eval(h=%v, λ=%g): negative error estimate %g", name, h, lambda, got.ErrEstimate)
				}
			}
		}
	}
}

func checkRel(t *testing.T, name, field string, h, lambda, got, want float64) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1e-12 {
		denom = 1e-12
	}
	if rel := math.Abs(got-want) / denom; rel > evalRelBound {
		t.Errorf("%q %s at (h=%v, λ=%g): interpolated %.8g, exact %.8g (rel %.3g > %.1g)",
			name, field, h, lambda, got, want, rel, evalRelBound)
	}
}

// TestBuildMasksSaturatedCells: a λ axis extending past saturation
// yields a masked suffix per row (NaN values), a monotone frontier in
// h, and no build error.
func TestBuildMasksSaturatedCells(t *testing.T) {
	d := testDef("hotspot-2d")
	d.Lambdas = lambdaAxis(3 * nearSatLambda("hotspot-2d"))
	s, err := surface.Build(d, surface.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	total, saturated := s.Points()
	if total != len(d.Hs)*len(d.Lambdas) {
		t.Fatalf("Points total = %d, want %d", total, len(d.Hs)*len(d.Lambdas))
	}
	if saturated == 0 {
		t.Fatalf("a 3×-near-saturation axis produced no saturated cells")
	}
	nl := len(d.Lambdas)
	for hi := range d.Hs {
		seenSat := false
		for li := 0; li < nl; li++ {
			cell := hi*nl + li
			if s.Saturated[cell] {
				seenSat = true
				if !math.IsNaN(s.Latency[cell]) {
					t.Errorf("saturated cell (%d,%d) holds %g, want NaN", hi, li, s.Latency[cell])
				}
			} else {
				if seenSat {
					t.Errorf("row %d: unsaturated cell %d after the frontier — mask is not a suffix", hi, li)
				}
				if math.IsNaN(s.Latency[cell]) {
					t.Errorf("unsaturated cell (%d,%d) holds NaN", hi, li)
				}
			}
		}
	}
}

// TestEvalFallbackSignals: queries outside the grid report
// ErrOutOfRange; queries at or within one cell of a row's saturation
// frontier report ErrNearSaturation. These sentinels are the serving
// layer's exact-solve fallback triggers.
func TestEvalFallbackSignals(t *testing.T) {
	d := testDef("hotspot-2d")
	d.Lambdas = lambdaAxis(3 * nearSatLambda("hotspot-2d"))
	s, err := surface.Build(d, surface.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	lo, hi := d.Lambdas[0], d.Lambdas[len(d.Lambdas)-1]
	outOfRange := []struct {
		name      string
		h, lambda float64
	}{
		{"h below the axis", 0.05, lo * 2},
		{"h above the axis", 0.35, lo * 2},
		{"lambda below the axis", 0.2, lo / 2},
	}
	for _, q := range outOfRange {
		if _, err := s.Eval(q.h, q.lambda); !errors.Is(err, surface.ErrOutOfRange) {
			t.Errorf("%s: want ErrOutOfRange, got %v", q.name, err)
		}
	}
	// The h=0.2 row saturates well before this axis's end (it extends to
	// 3× that row's near-saturation load), so a query at the axis top is
	// near-saturation, as is one inside the row's guard cell — the last
	// solved interval before the frontier, located from the mask itself.
	if _, err := s.Eval(0.2, hi); !errors.Is(err, surface.ErrNearSaturation) {
		t.Errorf("λ at axis top: want ErrNearSaturation, got %v", err)
	}
	row := hRowIndex(t, d, 0.2)
	nl := len(d.Lambdas)
	sat := nl
	for li := 0; li < nl; li++ {
		if s.Saturated[row*nl+li] {
			sat = li
			break
		}
	}
	if sat >= nl || sat < 2 {
		t.Fatalf("h=0.2 row did not saturate mid-axis (frontier index %d) — test grid assumption broken", sat)
	}
	guard := 0.5 * (d.Lambdas[sat-2] + d.Lambdas[sat-1])
	if _, err := s.Eval(0.2, guard); !errors.Is(err, surface.ErrNearSaturation) {
		t.Errorf("λ=%g in the guard cell before the frontier: want ErrNearSaturation, got %v", guard, err)
	}
}

// hRowIndex finds the grid row whose knot equals h.
func hRowIndex(t *testing.T, d surface.Def, h float64) int {
	t.Helper()
	for i, knot := range d.Hs {
		if math.Abs(knot-h) < 1e-12 {
			return i
		}
	}
	t.Fatalf("h=%v is not a knot of %v", h, d.Hs)
	return -1
}

// TestEvalOnGridKnots: at grid knots (exact h row, exact λ) the
// interpolant reproduces the stored solve essentially exactly — the
// Hermite basis interpolates its knots.
func TestEvalOnGridKnots(t *testing.T) {
	s := buildTestSurface(t, "hotspot-2d")
	d := s.Def
	for _, hi := range []int{0, 2, 4} {
		for _, li := range []int{0, 5, 10} {
			got, err := s.Eval(d.Hs[hi], d.Lambdas[li])
			if err != nil {
				t.Fatalf("Eval at knot (%d,%d): %v", hi, li, err)
			}
			want := s.Latency[hi*len(d.Lambdas)+li]
			if math.Abs(got.Latency-want) > 1e-9*math.Abs(want) {
				t.Errorf("knot (%d,%d): Eval %.12g, stored %.12g", hi, li, got.Latency, want)
			}
		}
	}
}

// TestBuildProgress: the progress hook sees every grid point and a
// constant total.
func TestBuildProgress(t *testing.T) {
	d := testDef("uniform")
	var calls, lastDone int
	s, err := surface.Build(d, surface.BuildOptions{
		Progress: func(done, total int) {
			calls++
			lastDone = done
			if total != len(d.Hs)*len(d.Lambdas) {
				t.Errorf("Progress total = %d, want %d", total, len(d.Hs)*len(d.Lambdas))
			}
		},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	total, _ := s.Points()
	if calls != total || lastDone != total {
		t.Errorf("Progress called %d times, last done %d; want %d", calls, lastDone, total)
	}
}

// TestBuildAccelerationDefault pins the build solves' scheme on every
// variant: zero BuildOptions build, bit for bit, the surface an explicit
// AccelAnderson build does, and an explicit AccelNone build is, bit for
// bit, the surface zero BuildOptions built while damped substitution was
// the default. Each surface is compared through its encoded file, whose
// trailing checksum covers every knot and the saturation mask.
func TestBuildAccelerationDefault(t *testing.T) {
	dampedChecksum := map[string]uint64{
		"bidirectional-2d": 0x37e74e4683157a3c,
		"hotspot-2d":       0x3d071e8d00991b54,
		"hypercube":        0xb7dad08065b244c2,
		"ndim":             0x34b8138ec2e50875,
		"uniform":          0xd2b1d6378ac44022,
	}
	encode := func(name string, fo fixpoint.Options) []byte {
		t.Helper()
		s, err := surface.Build(testDef(name), surface.BuildOptions{FixPoint: fo})
		if err != nil {
			t.Fatalf("Build(%q, %v): %v", name, fo.Acceleration, err)
		}
		enc, err := surface.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for _, name := range core.Solvers() {
		def := encode(name, fixpoint.Options{})
		if acc := encode(name, fixpoint.Options{Acceleration: fixpoint.AccelAnderson}); !bytes.Equal(def, acc) {
			t.Errorf("%s: the default build differs from an explicit Anderson build", name)
		}
		none := encode(name, fixpoint.Options{Acceleration: fixpoint.AccelNone})
		if got := binary.LittleEndian.Uint64(none[len(none)-8:]); got != dampedChecksum[name] {
			t.Errorf("%s: AccelNone build checksum %#016x, the damped default built %#016x", name, got, dampedChecksum[name])
		}
	}
}

// TestBuildRejectsBadDefs: structural problems fail fast with a
// descriptive error, before any solving.
func TestBuildRejectsBadDefs(t *testing.T) {
	base := testDef("hotspot-2d")
	for name, mutate := range map[string]func(*surface.Def){
		"empty model":       func(d *surface.Def) { d.Model = "" },
		"unknown model":     func(d *surface.Def) { d.Model = "no-such" },
		"empty hs":          func(d *surface.Def) { d.Hs = nil },
		"one lambda":        func(d *surface.Def) { d.Lambdas = d.Lambdas[:1] },
		"descending hs":     func(d *surface.Def) { d.Hs = []float64{0.3, 0.2} },
		"h at 1":            func(d *surface.Def) { d.Hs = []float64{0.2, 1.0} },
		"negative lambda":   func(d *surface.Def) { d.Lambdas = []float64{-1e-4, 1e-4} },
		"duplicate lambdas": func(d *surface.Def) { d.Lambdas = []float64{1e-4, 1e-4} },
		"invalid shape":     func(d *surface.Def) { d.K = 1 },
	} {
		d := base
		mutate(&d)
		if _, err := surface.Build(d, surface.BuildOptions{}); err == nil {
			t.Errorf("%s: Build accepted an invalid definition", name)
		}
	}
}

// TestDefKeyIgnoresAxes: surfaces over different grids of the same
// shape share a key; any result-affecting knob splits it.
func TestDefKeyIgnoresAxes(t *testing.T) {
	a := testDef("hotspot-2d")
	b := a
	b.Hs = []float64{0.2, 0.25}
	b.Lambdas = lambdaAxis(1e-4)
	if a.Key() != b.Key() {
		t.Errorf("same shape, different grids: keys differ (%q vs %q)", a.Key(), b.Key())
	}
	c := a
	c.Blocking = core.BlockingMultiServer
	if a.Key() == c.Key() {
		t.Errorf("Blocking must split the shape key")
	}
}

// TestOptionValuesNoSolverImplementsAreRefused: a blocking value outside
// the kept forms — an unknown number or one of the retired ones (paper 1,
// wait-only 2, bandwidth 4) — is refused with a field error by
// core.Solve, by Def.Validate, and when a surface file carrying it is
// loaded. The kept values pass all three.
func TestOptionValuesNoSolverImplementsAreRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model string
		opts  core.Options
		field string // "" when the options are valid
	}{
		{"default", "hotspot-2d", core.Options{}, ""},
		{"multi-server blocking", "hotspot-2d", core.Options{Blocking: core.BlockingMultiServer}, ""},
		{"multi-server on uniform", "uniform", core.Options{Blocking: core.BlockingMultiServer}, ""},
		{"retired paper blocking", "hotspot-2d", core.Options{Blocking: 1}, "options.blocking"},
		{"retired wait-only blocking", "hotspot-2d", core.Options{Blocking: 2}, "options.blocking"},
		{"retired bandwidth blocking", "hotspot-2d", core.Options{Blocking: 4}, "options.blocking"},
		{"unknown blocking", "hotspot-2d", core.Options{Blocking: 7}, "options.blocking"},
		{"negative blocking", "bidirectional-2d", core.Options{Blocking: -1}, "options.blocking"},
		{"retired paper blocking on hypercube", "hypercube", core.Options{Blocking: 1}, "options.blocking"},
	} {
		spec := core.Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1.5e-4}
		switch tc.model {
		case "uniform":
			spec.H = 0
		case "hypercube":
			spec.K, spec.Dims = 2, 6
		}
		_, err := core.Solve(tc.model, spec, tc.opts)
		var fe *core.FieldError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: core.Solve refused valid options: %v", tc.name, err)
		case tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field):
			t.Errorf("%s: core.Solve err = %v, want a FieldError on %q", tc.name, err, tc.field)
		}

		// A surface file whose header carries the options: the grids come
		// from a valid build, only the definition is swapped.
		sfc := *smallSurface(t)
		sfc.Def.Model = tc.model
		sfc.Def.Blocking = tc.opts.Blocking
		if err := sfc.Def.Validate(); (err != nil) != (tc.field != "") {
			t.Errorf("%s: Def.Validate = %v, want refusal %t", tc.name, err, tc.field != "")
		}
		data, err := surface.Encode(&sfc)
		if err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		_, err = surface.Decode(data)
		if tc.field == "" && err != nil {
			t.Errorf("%s: Decode refused valid options: %v", tc.name, err)
		}
		if tc.field != "" && !errors.Is(err, surface.ErrBadHeader) {
			t.Errorf("%s: Decode err = %v, want ErrBadHeader", tc.name, err)
		}
	}
}
