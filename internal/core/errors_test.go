package core

import (
	"errors"
	"testing"
)

// TestValidationErrorsAreFieldErrors pins the structured-validation
// contract the serving layer relies on: every parameter rejection — from a
// variant's Validate, a factory's spec check, or the registry's model
// lookup — surfaces as a *FieldError naming the offending Spec field.
func TestValidationErrorsAreFieldErrors(t *testing.T) {
	good := Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}
	cases := []struct {
		name   string
		model  string
		mutate func(*Spec)
		field  string
	}{
		{"bad K", "hotspot-2d", func(s *Spec) { s.K = 1 }, "k"},
		{"bad V", "hotspot-2d", func(s *Spec) { s.V = 0 }, "v"},
		{"bad Lm", "hotspot-2d", func(s *Spec) { s.Lm = 0 }, "lm"},
		{"bad H", "hotspot-2d", func(s *Spec) { s.H = 1.5 }, "h"},
		{"bad Lambda", "hotspot-2d", func(s *Spec) { s.Lambda = 0 }, "lambda"},
		{"bad Dims", "hotspot-2d", func(s *Spec) { s.Dims = 3 }, "dims"},
		{"bi bad Dims", "bidirectional-2d", func(s *Spec) { s.Dims = 3 }, "dims"},
		{"uniform with hot spot", "uniform", func(s *Spec) {}, "h"},
		{"hypercube bad K", "hypercube", func(s *Spec) {}, "k"},
		{"ndim bad V", "ndim", func(s *Spec) { s.V = 1 }, "v"},
		// Cost caps: refused before the solver allocates its state.
		{"K above the torus cap", "hotspot-2d", func(s *Spec) { s.K = 888816 }, "k"},
		{"bi K overflowing K²", "bidirectional-2d", func(s *Spec) { s.K = 1 << 32 }, "k"},
		{"V above the cap", "hotspot-2d", func(s *Spec) { s.V = 1 << 30 }, "v"},
		{"ndim state above the cap", "ndim", func(s *Spec) { s.K, s.Dims = 1e9, 1 }, "k"},
		{"unknown model", "no-such-model", func(s *Spec) {}, "model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := good
			tc.mutate(&spec)
			_, err := Solve(tc.model, spec, Options{})
			if err == nil {
				t.Fatal("want a validation error")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("err %v (%T) is not a *FieldError", err, err)
			}
			if fe.Field != tc.field {
				t.Errorf("Field = %q, want %q (reason %q)", fe.Field, tc.field, fe.Reason)
			}
			if fe.Reason == "" || fe.Error() != fe.Reason {
				t.Errorf("Reason/Error mismatch: %q vs %q", fe.Reason, fe.Error())
			}
		})
	}
}

// TestGoodSpecPassesValidation guards against FieldError conversions
// tightening any range.
func TestGoodSpecPassesValidation(t *testing.T) {
	for _, model := range Solvers() {
		spec := Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-5}
		switch model {
		case "uniform":
			spec.H = 0
		case "hypercube":
			spec.K, spec.Dims = 2, 8
		case "ndim":
			spec.Dims = 3
			spec.K = 8
		}
		if _, err := NewSolver(model, spec, Options{}); err != nil {
			t.Errorf("%s: NewSolver rejected a good spec: %v", model, err)
		}
	}
}
