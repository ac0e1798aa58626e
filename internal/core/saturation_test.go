package core

import (
	"errors"
	"testing"
)

// TestSolversWrapErrSaturated drives every solver far beyond its saturation
// load and requires the failure to satisfy errors.Is(err, ErrSaturated).
// The experiments layer (and any API consumer) relies on this contract for
// saturation detection — it must never depend on error message wording.
func TestSolversWrapErrSaturated(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"hotspot-2d", Spec{K: 8, V: 2, Lm: 32, H: 0.3}},
		{"uniform", Spec{K: 8, Dims: 2, V: 2, Lm: 32}},
		{"bidirectional-2d", Spec{K: 8, V: 2, Lm: 32, H: 0.3}},
		{"ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.3}},
		{"hypercube", Spec{Dims: 6, V: 2, Lm: 32, H: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Far beyond any of these networks' capacity.
			tc.spec.Lambda = 0.5
			_, err := Solve(tc.name, tc.spec, Options{})
			if err == nil {
				t.Fatal("no error at an absurd offered load")
			}
			if !errors.Is(err, ErrSaturated) {
				t.Errorf("error does not wrap ErrSaturated: %v", err)
			}
			// The multi-server form must uphold the contract too (it takes
			// a different error path through the iterate step).
			if tc.name == "hotspot-2d" {
				for _, form := range []BlockingForm{BlockingMultiServer, BlockingVCOccupancy} {
					_, err := Solve(tc.name, tc.spec, Options{Blocking: form})
					if err == nil {
						t.Fatalf("blocking form %v: no error at an absurd load", form)
					}
					if !errors.Is(err, ErrSaturated) {
						t.Errorf("blocking form %v: error does not wrap ErrSaturated: %v", form, err)
					}
				}
			}
		})
	}
}
