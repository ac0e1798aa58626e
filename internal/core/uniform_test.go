package core

import (
	"errors"
	"math"
	"testing"
)

// TestUniformParamsValidate pins the baseline's rules (H = 0, K >= 2,
// Dims >= 1 with Dims 0 standing for 2, V >= 1, then the shared ranges)
// and the field each rejection names.
func TestUniformParamsValidate(t *testing.T) {
	for _, good := range []Spec{
		{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1e-3},
		{K: 16, V: 1, Lm: 32, Lambda: 1e-3},
	} {
		if err := ValidateSpec("uniform", good, Options{}); err != nil {
			t.Fatalf("good spec %+v rejected: %v", good, err)
		}
	}
	bad := []struct {
		s     Spec
		field string
	}{
		{Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.1, Lambda: 1e-3}, "h"},
		{Spec{K: 1, Dims: 2, V: 2, Lm: 32, Lambda: 1e-3}, "k"},
		{Spec{K: 16, Dims: -1, V: 2, Lm: 32, Lambda: 1e-3}, "dims"},
		{Spec{K: 16, Dims: 2, V: 0, Lm: 32, Lambda: 1e-3}, "v"},
		{Spec{K: 16, Dims: 2, V: 2, Lm: 0, Lambda: 1e-3}, "lm"},
		{Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 0}, "lambda"},
		{Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: math.NaN()}, "lambda"},
	}
	for i, tc := range bad {
		if f := fieldOf(ValidateSpec("uniform", tc.s, Options{})); f != tc.field {
			t.Errorf("bad spec %d (%+v) rejected on field %q, want %q", i, tc.s, f, tc.field)
		}
	}
}

func TestUniformZeroLoad(t *testing.T) {
	s := Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1e-9}
	r := mustSolve(t, "uniform", s, Options{})
	want := 32.0 + 15.0 // Lm + n(k-1)/2
	// The state's one variable is the network latency S.
	if network := solvedState(t, "uniform", s).x[0]; math.Abs(network-want) > 0.01 {
		t.Errorf("zero-load network latency %v, want %v", network, want)
	}
	if math.Abs(r.Latency-want) > 0.1 {
		t.Errorf("zero-load latency %v, want ~%v", r.Latency, want)
	}
	if r.VBar > 1.0001 {
		t.Errorf("zero-load multiplexing %v", r.VBar)
	}
}

func TestUniformMonotoneInLambda(t *testing.T) {
	prev := 0.0
	for _, lam := range []float64{1e-4, 5e-4, 1e-3, 1.5e-3, 2e-3} {
		r, err := Solve("uniform", Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: lam}, Options{})
		if err != nil {
			t.Fatalf("lambda=%v: %v", lam, err)
		}
		if r.Latency <= prev {
			t.Fatalf("latency not increasing at %v", lam)
		}
		prev = r.Latency
	}
}

func TestUniformSaturates(t *testing.T) {
	// Per-channel load k̄·lambda·S >= 1 must fail: with k̄ = 7.5, S >= 47,
	// lambda = 0.004 gives utilisation > 1.4.
	_, err := Solve("uniform", Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 0.004}, Options{})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

func TestUniformSaturationNearChannelCapacity(t *testing.T) {
	s, err := SaturationLambda(func(lam float64) error {
		_, e := Solve("uniform", Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: lam}, Options{})
		return e
	}, 1e-5, 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Channel capacity bound: lambda_sat <= 1/(k̄·Lm) = 1/240.
	if s > 1/240.0 {
		t.Errorf("saturation %v above channel capacity bound %v", s, 1/240.0)
	}
	if s < 1/240.0/10 {
		t.Errorf("saturation %v implausibly low", s)
	}
}

func TestUniformDimsScaling(t *testing.T) {
	// More dimensions at the same radix mean longer paths and higher
	// latency at equal lambda.
	r2 := mustSolve(t, "uniform", Spec{K: 8, Dims: 2, V: 2, Lm: 32, Lambda: 1e-3}, Options{})
	r3 := mustSolve(t, "uniform", Spec{K: 8, Dims: 3, V: 2, Lm: 32, Lambda: 1e-3}, Options{})
	if r3.Latency <= r2.Latency {
		t.Errorf("3-D latency %v not above 2-D %v", r3.Latency, r2.Latency)
	}
}

func TestSaturationLambdaValidation(t *testing.T) {
	alwaysOK := func(float64) error { return nil }
	alwaysSat := func(float64) error { return ErrSaturated }
	if _, err := SaturationLambda(alwaysOK, 0, 0, 1e-3); err == nil {
		t.Error("lo=0 accepted")
	}
	if _, err := SaturationLambda(alwaysSat, 1e-3, 0, 1e-3); err == nil {
		t.Error("saturated lower bracket accepted")
	}
	if _, err := SaturationLambda(alwaysOK, 1e-3, 0, 1e-3); err == nil {
		t.Error("unbracketable function accepted")
	}
	if _, err := SaturationLambda(alwaysOK, 1e-3, 2e-3, 1e-3); err == nil {
		t.Error("non-saturated upper bracket accepted")
	}
}

func TestSaturationLambdaBisection(t *testing.T) {
	threshold := 0.37
	solve := func(lam float64) error {
		if lam >= threshold {
			return ErrSaturated
		}
		return nil
	}
	got, err := SaturationLambda(solve, 0.01, 0, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-threshold)/threshold > 2e-4 {
		t.Errorf("bisection found %v, want ~%v", got, threshold)
	}
}
