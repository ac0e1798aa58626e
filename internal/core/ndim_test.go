package core

import (
	"errors"
	"math"
	"testing"
)

// TestNDimParamsValidate pins the general model's rules (K >= 2, Dims >= 1
// with Dims 0 standing for 2, the K^Dims cap, V >= 2 except V >= 1 at
// K = 2, then the shared ranges) and the field each rejection names.
func TestNDimParamsValidate(t *testing.T) {
	for _, good := range []Spec{
		{K: 8, Dims: 3, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4},
		{K: 8, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4},
		{K: 2, Dims: 3, V: 1, Lm: 16, H: 0.2, Lambda: 1e-4},
	} {
		if err := ValidateSpec("ndim", good, Options{}); err != nil {
			t.Fatalf("good spec %+v rejected: %v", good, err)
		}
	}
	bad := []struct {
		s     Spec
		field string
	}{
		{Spec{K: 1, Dims: 3, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4}, "k"},
		{Spec{K: 8, Dims: -1, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4}, "dims"},
		{Spec{K: 8, Dims: 3, V: 1, Lm: 16, H: 0.2, Lambda: 1e-4}, "v"},
		{Spec{K: 3, Dims: 3, V: 1, Lm: 16, H: 0.2, Lambda: 1e-4}, "v"},
		{Spec{K: 8, Dims: 3, V: 2, Lm: 0, H: 0.2, Lambda: 1e-4}, "lm"},
		{Spec{K: 8, Dims: 3, V: 2, Lm: 16, H: 1, Lambda: 1e-4}, "h"},
		{Spec{K: 8, Dims: 3, V: 2, Lm: 16, H: 0.2, Lambda: 0}, "lambda"},
		{Spec{K: 1000, Dims: 30, V: 2, Lm: 16, H: 0.2, Lambda: 1e-4}, "k"},
	}
	for i, tc := range bad {
		if f := fieldOf(ValidateSpec("ndim", tc.s, Options{})); f != tc.field {
			t.Errorf("bad spec %d (%+v) rejected on field %q, want %q", i, tc.s, f, tc.field)
		}
	}
}

func TestNDimZeroLoad(t *testing.T) {
	r := mustSolve(t, "ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 16, H: 0.2, Lambda: 1e-9}, Options{})
	// Mean hops of a uniform non-self destination in a k-ary n-cube:
	// n·(k-1)/2 normalised for the self-exclusion.
	wantHops := 3 * 3.5 / (1 - math.Pow(8, -3))
	if math.Abs(r.Regular-(16+wantHops)) > 0.3 {
		t.Errorf("zero-load regular %v, want ~%v", r.Regular, 16+wantHops)
	}
	if r.SourceWait > 0.01 || r.VBar > 1.001 {
		t.Errorf("zero-load ws %v VBar %v", r.SourceWait, r.VBar)
	}
}

func TestNDimMatchesTwoDimModelAtLightLoad(t *testing.T) {
	// For n = 2 the general model must agree with the paper's 2-D model at
	// light load (they differ only in suffix-averaging granularity).
	for _, lam := range []float64{1e-5, 5e-5, 1e-4} {
		nd, err := Solve("ndim", Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: lam}, Options{})
		if err != nil {
			t.Fatalf("ndim: %v", err)
		}
		td := mustSolve(t, "hotspot-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: lam}, Options{})
		rel := math.Abs(nd.Latency-td.Latency) / td.Latency
		if rel > 0.05 {
			t.Errorf("lambda=%v: ndim %v vs 2-D %v (rel %.3f)", lam, nd.Latency, td.Latency, rel)
		}
	}
}

func TestNDimMonotoneInLambda(t *testing.T) {
	prev := 0.0
	for _, lam := range []float64{1e-5, 5e-5, 1e-4, 2e-4} {
		r, err := Solve("ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.3, Lambda: lam}, Options{})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lam, err)
		}
		if r.Latency <= prev {
			t.Fatalf("latency not increasing at %v", lam)
		}
		prev = r.Latency
	}
}

func TestNDimSaturation(t *testing.T) {
	// The busiest hot channel (last dimension, j = 1) carries
	// lambda·h·k^(n-1)·(k-1): capacity ~ 1/(0.3·64·7·33) for k=8, n=3.
	_, err := Solve("ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.3, Lambda: 1e-3}, Options{})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

func TestNDimSaturationFallsWithN(t *testing.T) {
	// At fixed k and h, more dimensions concentrate more hot traffic on
	// the last dimension's channels (k^(n-1) prefixes), so saturation
	// falls with n.
	sat := func(n int) float64 {
		s, err := SaturationLambda(func(lam float64) error {
			_, e := Solve("ndim", Spec{K: 4, Dims: n, V: 2, Lm: 16, H: 0.3, Lambda: lam}, Options{})
			return e
		}, 1e-8, 0, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s2, s3, s4 := sat(2), sat(3), sat(4)
	if !(s2 > s3 && s3 > s4) {
		t.Errorf("saturation not decreasing in n: %v %v %v", s2, s3, s4)
	}
}

func TestNDimHotAboveRegular(t *testing.T) {
	r := mustSolve(t, "ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.3, Lambda: 1.5e-4}, Options{})
	if r.Hot <= r.Regular {
		t.Errorf("hot %v not above regular %v", r.Hot, r.Regular)
	}
}
