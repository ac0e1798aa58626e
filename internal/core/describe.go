package core

import "errors"

// Constraint discovery for API clients. Each variant keeps its parameter
// rules in the Rules it registered (single source of truth); Constraints
// recovers a per-field description of those rules by probing them with
// deliberately-invalid specs and harvesting the *FieldError each probe
// provokes. The probe values are invalid for every registered variant, so
// each probe isolates exactly the field it mutates.

// Constraint describes one validated Spec field of a model variant: the
// canonical field name and the validator's own words for what it requires
// (the Reason of the FieldError an out-of-range value provokes).
type Constraint struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// probeBases are candidate valid operating points; Constraints uses the
// first one the variant accepts. Together they cover every registered
// variant: the torus variants take the Figure-1 shape, the uniform
// baseline needs H = 0, and the hypercube (ndim at K = 2) needs K = 2.
var probeBases = []Spec{
	{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4},
	{K: 16, Dims: 2, V: 2, Lm: 32, H: 0, Lambda: 1e-4},
	{K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 1e-5},
	{K: 2, Dims: 8, V: 2, Lm: 32, H: 0, Lambda: 1e-5},
}

// probes mutate one field of a valid base to a value no registered
// variant accepts, so the resulting FieldError documents that field's
// constraint. Validation reports first-failure, which is why the base
// must be otherwise valid.
var probes = []struct {
	field  string
	mutate func(*Spec)
}{
	{"k", func(s *Spec) { s.K = 1 }},
	{"dims", func(s *Spec) { s.Dims = -1 }},
	{"v", func(s *Spec) { s.V = 0 }},
	{"lm", func(s *Spec) { s.Lm = 0 }},
	{"h", func(s *Spec) { s.H = 1.5 }},
	{"lambda", func(s *Spec) { s.Lambda = -1 }},
}

// Constraints describes the named variant's per-field validation rules in
// canonical field order (k, dims, v, lm, h, lambda). Only an unknown
// model name errors. A field with no entry is unconstrained for this
// variant beyond what the probe could observe.
func Constraints(name string) ([]Constraint, error) {
	v, err := lookup(name)
	if err != nil {
		return nil, err
	}
	base, ok := v.validBase()
	if !ok {
		// Unreachable for the registered variants (probeBases covers them
		// all); an externally-registered variant with an exotic operating
		// point simply reports no constraints rather than failing.
		return nil, nil
	}
	out := make([]Constraint, 0, len(probes))
	for _, p := range probes {
		sp := base
		p.mutate(&sp)
		err := v.rules(v.canonical(sp))
		var fe *FieldError
		if errors.As(err, &fe) {
			out = append(out, Constraint{Field: fe.Field, Reason: fe.Reason})
		}
	}
	return out, nil
}

// validBase returns the first probe base the variant's rules accept.
func (v variant) validBase() (Spec, bool) {
	for _, b := range probeBases {
		if v.rules(v.canonical(b)) == nil {
			return b, true
		}
	}
	return Spec{}, false
}
