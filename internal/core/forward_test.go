package core

import (
	"fmt"
	"math"
	"testing"

	"kncube/internal/fixpoint"
)

// refusalShape is one variant at the shape a batch of served solves uses,
// with the top of its load range: about 5% above the damped solver's
// saturation load, so the top of the range is refused.
type refusalShape struct {
	model  string
	shape  Spec
	lamMax float64
}

// refusalShapes are the serve benchmark's batch shapes, one per variant.
var refusalShapes = []refusalShape{
	{"bidirectional-2d", Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2}, 1.12e-3},
	{"hotspot-2d", Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2}, 5.6e-4},
	{"hypercube", Spec{K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2}, 1.2e-3},
	{"ndim", Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.2}, 3.44e-4},
	{"uniform", Spec{K: 16, Dims: 2, V: 2, Lm: 32}, 2.92e-3},
}

// solveCounted solves spec under the default options with the given
// acceleration and returns the result (nil on refusal), the error and
// the number of rounds the trace saw, failures included.
func solveCounted(t *testing.T, model string, spec Spec, accel fixpoint.Acceleration) (*SolveResult, error, int) {
	t.Helper()
	var o Options
	o.FixPoint.Acceleration = accel
	rounds := 0
	o.FixPoint.Trace = func(fixpoint.TraceRecord) { rounds++ }
	r, err := Solve(model, spec, o)
	return r, err, rounds
}

// TestAndersonRefusesOnlyWhereDampedRefuses pins the acceleration
// contract on every variant, over a 16-point load grid from 2% to 100%
// of each batch shape's λmax, past saturation included: Anderson refuses
// exactly the loads the damped solve refuses, and costs no more rounds
// per item than the damped solve, the rounds of refused items included.
// The uniform grid carries one more row, the load of
// TestAndersonAnswersUniformCycle.
func TestAndersonRefusesOnlyWhereDampedRefuses(t *testing.T) {
	const points = 16
	for _, bs := range refusalShapes {
		t.Run(bs.model, func(t *testing.T) {
			lambdas := make([]float64, 0, points+1)
			for j := 0; j < points; j++ {
				lambdas = append(lambdas, bs.lamMax*(0.02+0.98*float64(j)/(points-1)))
			}
			if bs.model == "uniform" {
				lambdas = append(lambdas, 1.2848e-3)
			}
			var dampedRounds, andersonRounds, refused int
			for _, lambda := range lambdas {
				spec := bs.shape
				spec.Lambda = lambda
				dr, derr, dn := solveCounted(t, bs.model, spec, fixpoint.AccelNone)
				ar, aerr, an := solveCounted(t, bs.model, spec, fixpoint.AccelAnderson)
				dampedRounds += dn
				andersonRounds += an
				if (derr != nil) != (aerr != nil) {
					t.Errorf("λ=%.6g: damped error %v, Anderson error %v", lambda, derr, aerr)
					continue
				}
				if derr != nil {
					refused++
					continue
				}
				if rel := math.Abs(ar.Latency-dr.Latency) / dr.Latency; rel > 1e-6 {
					t.Errorf("λ=%.6g: Anderson latency %.9g, damped %.9g (rel %.3g)",
						lambda, ar.Latency, dr.Latency, rel)
				}
			}
			if andersonRounds > dampedRounds {
				t.Errorf("Anderson took %d rounds over %d items, damped %d",
					andersonRounds, len(lambdas), dampedRounds)
			}
			t.Logf("%d items, %d refused; rounds per item: damped %.1f, Anderson %.1f",
				len(lambdas), refused, float64(dampedRounds)/float64(len(lambdas)),
				float64(andersonRounds)/float64(len(lambdas)))
		})
	}
}

// TestAndersonAnswersUniformCycle is the named uniform row: a load at 44%
// of λmax on which Anderson's secant steps once cycled for the whole
// round budget and came back saturated, while the damped solve answers it
// in 33 rounds. It must get an answer: about 355.904 cycles, to within
// 1e-6 relative.
func TestAndersonAnswersUniformCycle(t *testing.T) {
	spec := Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1.2848e-3}
	r, err, _ := solveCounted(t, "uniform", spec, fixpoint.AccelAnderson)
	if err != nil {
		t.Fatalf("Anderson refused the uniform λ=%g: %v", spec.Lambda, err)
	}
	if rel := math.Abs(r.Latency-355.904) / 355.904; rel > 1e-6 {
		t.Errorf("Anderson latency %.9g, want about 355.904 (rel %.3g)", r.Latency, rel)
	}
}

// TestIteratePure pins that every Iterate is a function of in alone:
// with out pre-filled with NaN, with zeros, or with the previous round's
// values, the same in gives bit-identical out. A map that substitutes
// forward may read out only where this call has already written it.
func TestIteratePure(t *testing.T) {
	for _, name := range Solvers() {
		for _, lambda := range []float64{goldenSpec(name).Lambda, nearSatLambda(name)} {
			spec := goldenSpec(name)
			spec.Lambda = lambda
			s, err := NewSolver(name, spec, Options{})
			if err != nil {
				t.Fatalf("NewSolver(%q): %v", name, err)
			}
			s.Prepare()
			n := s.StateSize()
			// prev is the round before in: three rounds from the
			// zero-load state, so every entry has moved.
			prev, in := make([]float64, n), make([]float64, n)
			s.InitState(in)
			for i := 0; i < 3; i++ {
				copy(prev, in)
				if err := s.Iterate(prev, in); err != nil {
					t.Fatalf("%s λ=%g: Iterate: %v", name, lambda, err)
				}
			}
			var want []float64
			for _, fill := range []struct {
				label string
				with  func(out []float64)
			}{
				{"NaN", func(out []float64) {
					for i := range out {
						out[i] = math.NaN()
					}
				}},
				{"zeros", func(out []float64) { clear(out) }},
				{"previous round", func(out []float64) { copy(out, in) }},
			} {
				out := make([]float64, n)
				fill.with(out)
				if err := s.Iterate(in, out); err != nil {
					t.Fatalf("%s λ=%g: Iterate: %v", name, lambda, err)
				}
				if want == nil {
					want = out
					continue
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s λ=%g: out pre-filled with %s differs at %d: %v, want %v",
							name, lambda, fill.label, i, out[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestDefaultAnswersNearTightFixedPoint proves the default-options
// answers against the fixed point itself: at the golden load and near
// saturation, every variant's answer lies within 1e-8 relative of a
// damped solve run to a 1e-14 tolerance. Moving the iteration path moves
// the default answers only inside this bound.
func TestDefaultAnswersNearTightFixedPoint(t *testing.T) {
	tight := Options{FixPoint: fixpoint.Options{Tolerance: 1e-14, Acceleration: fixpoint.AccelNone}}
	for _, name := range Solvers() {
		for _, lambda := range []float64{goldenSpec(name).Lambda, nearSatLambda(name)} {
			t.Run(fmt.Sprintf("%s/%g", name, lambda), func(t *testing.T) {
				spec := goldenSpec(name)
				spec.Lambda = lambda
				def, err := Solve(name, spec, Options{})
				if err != nil {
					t.Fatalf("default solve: %v", err)
				}
				ref, err := Solve(name, spec, tight)
				if err != nil {
					t.Fatalf("tolerance 1e-14 solve: %v", err)
				}
				if rel := math.Abs(def.Latency-ref.Latency) / ref.Latency; rel > 1e-8 {
					t.Errorf("default latency %.15g, fixed point %.15g (rel %.3g)",
						def.Latency, ref.Latency, rel)
				}
			})
		}
	}
}

// TestDampedRoundsNearSaturation pins what forward substitution buys: at
// each recursion variant's near-saturation point the damped solve takes
// at most these rounds. A Jacobi sweep, where a value moves one hop per
// round, took 171, 82, 130 and 53.
func TestDampedRoundsNearSaturation(t *testing.T) {
	for name, max := range map[string]int{
		"hotspot-2d": 45, "bidirectional-2d": 35, "ndim": 40, "hypercube": 35,
	} {
		spec := goldenSpec(name)
		spec.Lambda = nearSatLambda(name)
		r, err := Solve(name, spec, Options{FixPoint: fixpoint.Options{Acceleration: fixpoint.AccelNone}})
		if err != nil {
			t.Fatalf("Solve(%q, λ=%g): %v", name, spec.Lambda, err)
		}
		if n := r.Convergence.Iterations; n > max {
			t.Errorf("%s near saturation: %d damped rounds, want at most %d", name, n, max)
		}
	}
}
