package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"kncube/internal/fixpoint"
)

// TestHypercubeIsNDimAtK2: the hypercube is the ndim model at K = 2, so
// the two names answer every load, refused ones included, bit for bit
// alike under both accelerations.
func TestHypercubeIsNDimAtK2(t *testing.T) {
	for _, acc := range []fixpoint.Acceleration{fixpoint.AccelNone, fixpoint.AccelAnderson} {
		o := Options{FixPoint: fixpoint.Options{Acceleration: acc}}
		for i, lambda := range bitIdentityLambdas() {
			s := bitIdentityShape("hypercube")
			s.Lambda = lambda
			hc, hcErr := Solve("hypercube", s, o)
			nd, ndErr := Solve("ndim", s, o)
			sameOutcome(t, fmt.Sprintf("%s λ[%d]", acc, i), hc, hcErr, nd, ndErr)
		}
	}
}

// TestHypercubeParamsValidate pins the hypercube's rules (K = 2 with K 0
// standing for it, Dims 1..30, V >= 1, then the shared ranges) and the
// field each rejection names.
func TestHypercubeParamsValidate(t *testing.T) {
	for _, good := range []Spec{
		{K: 2, Dims: 6, V: 2, Lm: 16, H: 0.2, Lambda: 1e-3},
		{Dims: 6, V: 1, Lm: 16, H: 0.2, Lambda: 1e-3},
	} {
		if err := ValidateSpec("hypercube", good, Options{}); err != nil {
			t.Fatalf("good spec %+v rejected: %v", good, err)
		}
	}
	bad := []struct {
		s     Spec
		field string
	}{
		{Spec{K: 4, Dims: 6, V: 2, Lm: 16, H: 0.2, Lambda: 1e-3}, "k"},
		{Spec{Dims: 0, V: 2, Lm: 16, H: 0.2, Lambda: 1e-3}, "dims"},
		{Spec{Dims: 31, V: 2, Lm: 16, H: 0.2, Lambda: 1e-3}, "dims"},
		{Spec{Dims: 6, V: 0, Lm: 16, H: 0.2, Lambda: 1e-3}, "v"},
		{Spec{Dims: 6, V: 2, Lm: 0, H: 0.2, Lambda: 1e-3}, "lm"},
		{Spec{Dims: 6, V: 2, Lm: 16, H: 1, Lambda: 1e-3}, "h"},
		{Spec{Dims: 6, V: 2, Lm: 16, H: -0.1, Lambda: 1e-3}, "h"},
		{Spec{Dims: 6, V: 2, Lm: 16, H: 0.2, Lambda: 0}, "lambda"},
	}
	for i, tc := range bad {
		if f := fieldOf(ValidateSpec("hypercube", tc.s, Options{})); f != tc.field {
			t.Errorf("bad spec %d (%+v) rejected on field %q, want %q", i, tc.s, f, tc.field)
		}
	}
}

func TestHypercubeZeroLoad(t *testing.T) {
	r := mustSolve(t, "hypercube", Spec{Dims: 6, V: 2, Lm: 16, H: 0.2, Lambda: 1e-9}, Options{})
	// Mean hops of a uniform non-self destination: (n/2)/(1-2^-n).
	wantReg := 16 + 3.0/(1-math.Pow(2, -6))
	if math.Abs(r.Regular-wantReg) > 0.2 {
		t.Errorf("zero-load regular %v, want ~%v", r.Regular, wantReg)
	}
	if r.SourceWait > 0.01 || r.VBar > 1.001 {
		t.Errorf("zero-load ws %v V %v", r.SourceWait, r.VBar)
	}
}

func TestHypercubeMonotoneInLambda(t *testing.T) {
	prev := 0.0
	for _, lam := range []float64{1e-5, 1e-4, 5e-4, 1e-3} {
		r, err := Solve("hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: lam}, Options{})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lam, err)
		}
		if r.Latency <= prev {
			t.Fatalf("latency not increasing at %v", lam)
		}
		prev = r.Latency
	}
}

func TestHypercubeSaturation(t *testing.T) {
	// The dim-(n-1) hot channel carries lambda*h*2^(n-1): for n=8, h=0.2,
	// Lm=32 capacity is ~1/(0.2*128*32) = 1.2e-3 at the last channel.
	_, err := Solve("hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 5e-3}, Options{})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

func TestHypercubeSaturationFallsWithH(t *testing.T) {
	sat := func(h float64) float64 {
		s, err := SaturationLambda(func(lam float64) error {
			_, e := Solve("hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: h, Lambda: lam}, Options{})
			return e
		}, 1e-7, 0, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if s2, s7 := sat(0.2), sat(0.7); s7 >= s2 {
		t.Errorf("saturation not decreasing in h: %v vs %v", s2, s7)
	}
}

func TestHypercubeHotServiceShape(t *testing.T) {
	// At vanishing load the dim-d hot service is the zero-load remaining
	// path: Lm + 1 + (n-1-d)/2.
	// The state holds S^h_d at [0, n).
	sHot := solvedState(t, "hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: 0.3, Lambda: 1e-9}).x
	for d := 0; d < 8; d++ {
		want := 32 + 1 + float64(8-1-d)/2
		if math.Abs(sHot[d]-want) > 0.01 {
			t.Errorf("zero-load S^h[%d] = %v, want %v", d, sHot[d], want)
		}
	}
	// Under load every hot channel's service grows, and the first-crossed
	// (dim 0) channel still reflects the longest remaining path among the
	// low dimensions.
	loaded := solvedState(t, "hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: 0.3, Lambda: 3e-4}).x
	for d := 0; d < 8; d++ {
		if loaded[d] <= sHot[d] {
			t.Errorf("loaded S^h[%d]=%v not above zero-load %v", d, loaded[d], sHot[d])
		}
	}
	if loaded[0] <= loaded[4] {
		t.Errorf("S^h[0]=%v should exceed S^h[4]=%v (longer remaining path)",
			loaded[0], loaded[4])
	}
}

func TestHypercubeHotAboveRegular(t *testing.T) {
	r := mustSolve(t, "hypercube", Spec{Dims: 8, V: 2, Lm: 32, H: 0.3, Lambda: 5e-4}, Options{})
	if r.Hot <= r.Regular {
		t.Errorf("hot %v not above regular %v", r.Hot, r.Regular)
	}
}
