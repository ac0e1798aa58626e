package core

import (
	"math"
	"testing"

	"kncube/internal/fixpoint"
)

// nearSatLambda holds, per variant, an offered load close to (but below) the
// saturation point at the goldenSpec shape — the regime where the damped
// contraction rate approaches 1 and acceleration pays off most.
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

// TestAcceleratedMatchesDampedGoldens pins Anderson to the damped
// solution: at a tight tolerance (where both iterations have actually
// closed in on the fixed point, rather than stopping a scheme-dependent
// distance away) the latencies must agree within the 1e-9 regression
// tolerance the golden results use — at the golden load and near saturation.
func TestAcceleratedMatchesDampedGoldens(t *testing.T) {
	tight := fixpoint.Options{Tolerance: 1e-12}
	for _, name := range Solvers() {
		for _, lambda := range []float64{goldenSpec(name).Lambda, nearSatLambda(name)} {
			spec := goldenSpec(name)
			spec.Lambda = lambda
			fd := tight
			fd.Acceleration = fixpoint.AccelNone
			damped, err := Solve(name, spec, Options{FixPoint: fd})
			if err != nil {
				t.Errorf("Solve(%q, λ=%g) damped: %v", name, lambda, err)
				continue
			}
			fo := tight
			fo.Acceleration = fixpoint.AccelAnderson
			acc, err := Solve(name, spec, Options{FixPoint: fo})
			if err != nil {
				t.Errorf("Solve(%q, λ=%g) Anderson: %v", name, lambda, err)
				continue
			}
			if diff := math.Abs(acc.Latency - damped.Latency); diff > 1e-9 {
				t.Errorf("Solve(%q, λ=%g) Anderson latency %.15g, damped %.15g (|diff| %.3g)",
					name, lambda, acc.Latency, damped.Latency, diff)
			}
		}
	}
}

// TestAccelNoneIsBitIdenticalToDefault pins the opt-out: AccelNone
// reproduces, bit for bit, the golden latencies the solver answered by
// default while damped substitution was the default, so the damped
// baseline arithmetic is untouched by the acceleration layer.
func TestAccelNoneIsBitIdenticalToDefault(t *testing.T) {
	dampedDefault := map[string]float64{
		"hotspot-2d":       50.279061333373619,
		"bidirectional-2d": 40.892751654238204,
		"uniform":          49.472803116714566,
		"hypercube":        36.134132101215386,
		"ndim":             49.374738338870849,
	}
	for _, name := range Solvers() {
		none, err := Solve(name, goldenSpec(name), Options{FixPoint: fixpoint.Options{Acceleration: fixpoint.AccelNone}})
		if err != nil {
			t.Fatalf("Solve(%q) AccelNone: %v", name, err)
		}
		if want := dampedDefault[name]; math.Float64bits(none.Latency) != math.Float64bits(want) {
			t.Errorf("%q: AccelNone latency %.17g differs from the damped default %.17g", name, none.Latency, want)
		}
	}
}

// TestZeroOptionsSolveIsAnderson pins the default: a zero-value Options
// solves exactly as an explicit AccelAnderson request does, bit for bit
// and round for round, at the golden load and near saturation.
func TestZeroOptionsSolveIsAnderson(t *testing.T) {
	explicit := Options{FixPoint: fixpoint.Options{Acceleration: fixpoint.AccelAnderson}}
	for _, name := range Solvers() {
		for _, lambda := range []float64{goldenSpec(name).Lambda, nearSatLambda(name)} {
			spec := goldenSpec(name)
			spec.Lambda = lambda
			def, err := Solve(name, spec, Options{})
			if err != nil {
				t.Fatalf("Solve(%q, λ=%g): %v", name, lambda, err)
			}
			acc, err := Solve(name, spec, explicit)
			if err != nil {
				t.Fatalf("Solve(%q, λ=%g) Anderson: %v", name, lambda, err)
			}
			if math.Float64bits(def.Latency) != math.Float64bits(acc.Latency) || def.Convergence != acc.Convergence {
				t.Errorf("%q λ=%g: default %.17g %+v, explicit Anderson %.17g %+v",
					name, lambda, def.Latency, def.Convergence, acc.Latency, acc.Convergence)
			}
			if def.Convergence.AcceleratedRounds == 0 {
				t.Errorf("%q λ=%g: the default solve took no accelerated round", name, lambda)
			}
		}
	}
}

// TestAndersonReducesIterationsNearSaturation is the performance contract:
// on every variant's near-saturation golden point, Anderson mixing must
// converge in strictly fewer substitution rounds than the damped baseline,
// and the trace must attribute rounds to the extrapolation.
func TestAndersonReducesIterationsNearSaturation(t *testing.T) {
	for _, name := range Solvers() {
		spec := goldenSpec(name)
		spec.Lambda = nearSatLambda(name)
		damped, err := Solve(name, spec, Options{FixPoint: fixpoint.Options{Acceleration: fixpoint.AccelNone}})
		if err != nil {
			t.Fatalf("Solve(%q) damped: %v", name, err)
		}
		var accelRounds int
		acc, err := Solve(name, spec, Options{FixPoint: fixpoint.Options{
			Acceleration: fixpoint.AccelAnderson,
			Trace: func(r fixpoint.TraceRecord) {
				if r.Accelerated {
					accelRounds++
				}
			},
		}})
		if err != nil {
			t.Fatalf("Solve(%q) Anderson: %v", name, err)
		}
		if acc.Convergence.Iterations >= damped.Convergence.Iterations {
			t.Errorf("%q near saturation: Anderson took %d iterations, damped %d",
				name, acc.Convergence.Iterations, damped.Convergence.Iterations)
		}
		if accelRounds == 0 || accelRounds != acc.Convergence.AcceleratedRounds {
			t.Errorf("%q: trace saw %d accelerated rounds, summary %d (want > 0)",
				name, accelRounds, acc.Convergence.AcceleratedRounds)
		}
		if acc.Convergence.AcceleratedRounds+acc.Convergence.DampedRounds != acc.Convergence.Iterations {
			t.Errorf("%q: round counters %+v do not sum to iterations", name, acc.Convergence)
		}
	}
}
