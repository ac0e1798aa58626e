package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"kncube/internal/fixpoint"
)

// refusedLambda holds, per variant, a load just past the goldenSpec
// shape's saturation point: the iteration runs several rounds (building
// Anderson history and stall counts) before the source queue refuses it.
func refusedLambda(name string) float64 {
	switch name {
	case "uniform":
		return 2.92e-3
	case "hypercube":
		return 1.1655e-3
	case "bidirectional-2d":
		return 1.1048e-3
	case "ndim":
		return 5.611e-4
	default: // hotspot-2d
		return 5.61e-4
	}
}

// roundCancel is a context whose Err, once armed, reports cancellation
// from its (at+1)th call on. The fixed point checks it once per round, so
// an armed solve is cancelled after at rounds, mid-iteration.
type roundCancel struct {
	context.Context
	armed     bool
	at, calls int
}

func (c *roundCancel) Err() error {
	if !c.armed {
		return nil
	}
	c.calls++
	if c.calls > c.at {
		return context.Canceled
	}
	return nil
}

// sameOutcome fails unless a prepared solve's outcome equals the one-shot
// reference bit for bit: the same refusal text, or the same SolveResult
// in every field.
func sameOutcome(t *testing.T, step string, got *SolveResult, gotErr error, want *SolveResult, wantErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: prepared err %v, one-shot err %v", step, gotErr, wantErr)
		}
		return
	}
	// SolveResult holds scalars only, so == compares every field; the bit
	// patterns of its floats add what == misses (signed zeros, NaNs).
	bits := func(r *SolveResult) [9]uint64 {
		c := r.Convergence
		return [...]uint64{math.Float64bits(r.Latency), math.Float64bits(r.Regular),
			math.Float64bits(r.Hot), math.Float64bits(r.SourceWait), math.Float64bits(r.VBar),
			math.Float64bits(r.MaxUtilisation), math.Float64bits(c.Residual),
			math.Float64bits(c.Tolerance), math.Float64bits(c.Damping)}
	}
	if *got != *want || bits(got) != bits(want) {
		t.Errorf("%s: prepared %+v, one-shot %+v", step, *got, *want)
	}
}

// TestPreparedSolverReuseIsBitIdentical runs one PreparedSolver per
// variant and acceleration through a converging load, a refused one, a
// solve cancelled mid-iteration, a converging load again, another refusal
// and a SolveWarm after it (which starts cold), and holds every outcome to
// a one-shot Solve bit for bit. A reused workspace that leaked Anderson
// history, a safeguard residual or a stall count from one solve into the
// next would move an answer or a refusal here.
func TestPreparedSolverReuseIsBitIdentical(t *testing.T) {
	for _, name := range Solvers() {
		for _, acc := range []fixpoint.Acceleration{fixpoint.AccelNone, fixpoint.AccelAnderson} {
			t.Run(name+"/"+acc.String(), func(t *testing.T) {
				spec := goldenSpec(name)
				ctx := &roundCancel{Context: context.Background(), at: 3}
				rounds := 0
				var o Options
				o.FixPoint.Acceleration = acc
				o.FixPoint.Ctx = ctx
				o.FixPoint.Trace = func(fixpoint.TraceRecord) { rounds++ }
				ps, err := Prepare(name, spec, o)
				if err != nil {
					t.Fatal(err)
				}
				oneShot := func(lambda float64, cancel bool) (*SolveResult, error) {
					ro := o
					ro.FixPoint.Ctx = &roundCancel{Context: context.Background(), armed: cancel, at: ctx.at}
					sp := spec
					sp.Lambda = lambda
					return Solve(name, sp, ro)
				}
				steps := []struct {
					label                 string
					lambda                float64
					warm, cancel, refused bool
				}{
					{"converging", spec.Lambda, false, false, false},
					{"refused", refusedLambda(name), false, false, true},
					{"cancelled", nearSatLambda(name), false, true, false},
					{"converging again", nearSatLambda(name), false, false, false},
					{"refused again", refusedLambda(name), false, false, true},
					{"warm after a refusal", spec.Lambda, true, false, false},
				}
				for _, st := range steps {
					ctx.armed, ctx.calls = st.cancel, 0
					rounds = 0
					var got *SolveResult
					var gotErr error
					if st.warm {
						got, gotErr = ps.SolveWarm(st.lambda)
					} else {
						got, gotErr = ps.Solve(st.lambda)
					}
					want, wantErr := oneShot(st.lambda, st.cancel)
					sameOutcome(t, st.label, got, gotErr, want, wantErr)
					switch {
					case st.cancel && !errors.Is(gotErr, context.Canceled):
						t.Errorf("%s: err %v, want a cancellation", st.label, gotErr)
					case st.refused && (!errors.Is(gotErr, ErrSaturated) || rounds < 2):
						t.Errorf("%s: err %v after %d rounds, want a saturation refusal mid-iteration",
							st.label, gotErr, rounds)
					}
				}
			})
		}
	}
}

// TestPreparedSolveAllocatesOnlyItsAnswer is the workspace gate: once a
// prepared shape has been solved, solving it again allocates exactly what
// Assemble allocates for the result, for every variant and acceleration,
// at the golden load and near saturation.
func TestPreparedSolveAllocatesOnlyItsAnswer(t *testing.T) {
	for _, name := range Solvers() {
		for _, acc := range []fixpoint.Acceleration{fixpoint.AccelNone, fixpoint.AccelAnderson} {
			for _, lambda := range []float64{goldenSpec(name).Lambda, nearSatLambda(name)} {
				var o Options
				o.FixPoint.Acceleration = acc
				ps, err := Prepare(name, goldenSpec(name), o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ps.Solve(lambda)
				if err != nil {
					t.Fatalf("%s %v λ=%g: %v", name, acc, lambda, err)
				}
				solve := testing.AllocsPerRun(5, func() { _, _ = ps.Solve(lambda) })
				x := append([]float64(nil), ps.x...)
				answer := testing.AllocsPerRun(5, func() { _, _ = ps.s.Assemble(x, res.Convergence) })
				// AllocsPerRun averages whole counts over its runs.
				if int(solve) != int(answer) {
					t.Errorf("%s %v λ=%g: a second prepared solve allocates %v times, its Assemble %v",
						name, acc, lambda, solve, answer)
				}
			}
		}
	}
}

// endless wraps a variant with a map that never converges, so a solve
// runs its whole round budget.
type endless struct {
	Solver
	round int
}

func (e *endless) Iterate(in, out []float64) error {
	e.round++
	step := 1.0
	if e.round%2 == 0 {
		step = -1
	}
	for i := range in {
		out[i] = in[i] + step
	}
	return nil
}

// TestRoundBudgetIsTheBudgetSolved pins RoundBudget to the MaxIterations
// finishSolve hands the fixed point, for every variant, with the options
// left zero, with the budget set, and with only the tolerance set.
func TestRoundBudgetIsTheBudgetSolved(t *testing.T) {
	for _, name := range Solvers() {
		for _, fp := range []fixpoint.Options{{}, {MaxIterations: 77}, {Tolerance: 1e-3}} {
			o := Options{FixPoint: fp}
			sol, err := NewSolver(name, goldenSpec(name), o)
			if err != nil {
				t.Fatal(err)
			}
			sol.Prepare()
			rounds := 0
			o.FixPoint.Trace = func(fixpoint.TraceRecord) { rounds++ }
			x := make([]float64, sol.StateSize())
			sol.InitState(x)
			_, err = finishSolve(&endless{Solver: sol}, x, o, new(fixpoint.Workspace))
			if !errors.Is(err, ErrSaturated) || !strings.Contains(err.Error(), fixpoint.ErrMaxIterations.Error()) {
				t.Fatalf("%s %+v: err %v, want the budget exhausted", name, fp, err)
			}
			if want := RoundBudget(o); rounds != want {
				t.Errorf("%s %+v: the solve ran %d rounds, RoundBudget reports %d", name, fp, rounds, want)
			}
		}
	}
}

// TestPreparedSetBoundCountsWorkspaces: the footprint a PreparedSet bounds
// is what a solver holds between solves, whichever model and scheme: its
// state, its workspace as far as solves have grown it and its model's
// prepared scratch, counted by capacity, plus the two structs. It is
// checked against a reflective walk summing the capacity of every slice
// the solver reaches.
func TestPreparedSetBoundCountsWorkspaces(t *testing.T) {
	for _, name := range Solvers() {
		for _, accel := range []fixpoint.Acceleration{fixpoint.AccelAnderson, fixpoint.AccelNone} {
			var o Options
			o.FixPoint.Acceleration = accel
			spec := goldenSpec(name)
			if spec.K == 16 {
				spec.K = 24
			}
			ps, err := Prepare(name, spec, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, lam := range []float64{spec.Lambda, nearSatLambda(name)} {
				if _, err := ps.Solve(lam); err != nil {
					t.Fatalf("%s %v λ=%g: %v", name, accel, lam, err)
				}
				walked := sliceBytes(reflect.ValueOf(ps), map[uintptr]bool{})
				structs := int(reflect.TypeOf(ps).Elem().Size() + reflect.TypeOf(ps.s).Elem().Size())
				if got := ps.footprint(); got < walked || got != walked+structs {
					t.Errorf("%s %v λ=%g: footprint %d bytes, the solver holds %d in slices and %d in structs",
						name, accel, lam, got, walked, structs)
				}
			}
		}
	}
}

// sliceBytes sums the capacity bytes of every slice reachable from v,
// following each pointer once.
func sliceBytes(v reflect.Value, seen map[uintptr]bool) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			n = sliceBytes(v.Elem(), seen)
		}
	case reflect.Interface:
		if !v.IsNil() {
			n = sliceBytes(v.Elem(), seen)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			n += sliceBytes(v.Field(i), seen)
		}
	case reflect.Array:
		for i := range v.Len() {
			n += sliceBytes(v.Index(i), seen)
		}
	case reflect.Slice:
		n = v.Cap() * int(v.Type().Elem().Size())
		if k := v.Type().Elem().Kind(); k != reflect.Float64 && k != reflect.Int {
			for i := range v.Len() {
				n += sliceBytes(v.Index(i), seen)
			}
		}
	}
	return n
}
