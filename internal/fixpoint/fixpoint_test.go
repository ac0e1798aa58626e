package fixpoint

import (
	"context"
	"errors"
	"math"
	"testing"

	"kncube/internal/stats"
)

func TestSolveLinearContraction(t *testing.T) {
	// x = 0.5x + 3 has fixed point 6.
	f := func(in, out []float64) error {
		out[0] = 0.5*in[0] + 3
		return nil
	}
	state := []float64{0}
	res, err := Solve(state, f, Options{Tolerance: 1e-10, MaxIterations: 1000, Damping: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(state[0]-6) > 1e-8 {
		t.Errorf("fixed point %v, want 6 (res %+v)", state[0], res)
	}
}

func TestSolveCoupledSystem(t *testing.T) {
	// x = (y+1)/2, y = (x+1)/2 has fixed point (1, 1).
	f := func(in, out []float64) error {
		out[0] = (in[1] + 1) / 2
		out[1] = (in[0] + 1) / 2
		return nil
	}
	state := []float64{0, 10}
	if _, err := Solve(state, f, Options{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(state[0]-1) > 1e-5 || math.Abs(state[1]-1) > 1e-5 {
		t.Errorf("fixed point %v, want (1,1)", state)
	}
}

func TestSolveNonlinear(t *testing.T) {
	// x = cos(x): Dottie number 0.739085...
	f := func(in, out []float64) error {
		out[0] = math.Cos(in[0])
		return nil
	}
	state := []float64{0}
	if _, err := Solve(state, f, Options{Tolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(state[0]-0.7390851332) > 1e-6 {
		t.Errorf("Dottie number: got %v", state[0])
	}
}

func TestDampingStabilisesOscillation(t *testing.T) {
	// x = -x + 2 oscillates under plain substitution from x=0 (0,2,0,2,...)
	// but converges to 1 with damping 0.5 in one step.
	f := func(in, out []float64) error {
		out[0] = -in[0] + 2
		return nil
	}
	state := []float64{0}
	if _, err := Solve(state, f, Options{Damping: 0.5, Tolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(state[0]-1) > 1e-6 {
		t.Errorf("oscillator fixed point %v, want 1", state[0])
	}
}

func TestSolveDivergenceDetected(t *testing.T) {
	f := func(in, out []float64) error {
		out[0] = in[0]*in[0] + 1e30
		return nil
	}
	state := []float64{1}
	_, err := Solve(state, f, Options{MaxIterations: 100, Damping: 1})
	if !errors.Is(err, ErrDiverged) {
		t.Errorf("err = %v, want ErrDiverged", err)
	}
}

func TestSolveMaxIterations(t *testing.T) {
	// Growth without overflow within the budget: hits the iteration cap.
	f := func(in, out []float64) error {
		out[0] = in[0] + 1
		return nil
	}
	state := []float64{0}
	res, err := Solve(state, f, Options{MaxIterations: 50, Damping: 1})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if res.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", res.Iterations)
	}
}

func TestSolvePropagatesMapError(t *testing.T) {
	sentinel := errors.New("saturated")
	f := func(in, out []float64) error { return sentinel }
	_, err := Solve([]float64{0}, f, Options{})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestSolveOptionValidation(t *testing.T) {
	ok := func(in, out []float64) error { copy(out, in); return nil }
	if _, err := Solve([]float64{0}, ok, Options{Damping: 1.5}); err == nil {
		t.Error("damping > 1 accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{Damping: -0.1}); err == nil {
		t.Error("negative damping accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{Tolerance: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{MaxIterations: -5}); err == nil {
		t.Error("negative MaxIterations accepted")
	}
}

func TestSolveIdentityConvergesImmediately(t *testing.T) {
	f := func(in, out []float64) error { copy(out, in); return nil }
	state := []float64{3, 4, 5}
	res, err := Solve(state, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("identity took %d iterations", res.Iterations)
	}
	if !stats.IsZero(res.Residual) {
		t.Errorf("identity residual %v", res.Residual)
	}
}

func TestSolveEmptyState(t *testing.T) {
	f := func(in, out []float64) error { return nil }
	if _, err := Solve(nil, f, Options{}); err != nil {
		t.Errorf("empty state: %v", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := Defaults()
	if d.Tolerance <= 0 || d.MaxIterations <= 0 || d.Damping <= 0 || d.Damping > 1 {
		t.Errorf("bad defaults: %+v", d)
	}
}

func TestTraceRecordsEveryIteration(t *testing.T) {
	f := func(in, out []float64) error {
		out[0] = 0.5*in[0] + 3
		return nil
	}
	var recs []TraceRecord
	state := []float64{0}
	res, err := Solve(state, f, Options{
		Tolerance: 1e-10, MaxIterations: 1000, Damping: 1,
		Trace: func(r TraceRecord) { recs = append(recs, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Iterations {
		t.Fatalf("%d trace records for %d iterations", len(recs), res.Iterations)
	}
	for i, r := range recs {
		if r.Iteration != i+1 {
			t.Errorf("record %d has iteration %d", i, r.Iteration)
		}
		if !stats.ApproxEqual(r.Damping, 1, 0, 0) {
			t.Errorf("record %d damping %v, want 1", i, r.Damping)
		}
		if r.NonFiniteIndex != -1 {
			t.Errorf("record %d non-finite index %d on a finite run", i, r.NonFiniteIndex)
		}
	}
	last := recs[len(recs)-1]
	if !stats.ApproxEqual(last.MaxRelDelta, res.Residual, 0, 0) {
		t.Errorf("last trace delta %v != residual %v", last.MaxRelDelta, res.Residual)
	}
	if !res.Converged || res.Diverged {
		t.Errorf("convergence summary %+v, want converged", res)
	}
}

func TestTraceReportsNonFiniteIndex(t *testing.T) {
	// Variable 2 of 3 blows up; the final record must name it.
	f := func(in, out []float64) error {
		out[0] = in[0]
		out[1] = in[1]
		out[2] = in[2]*in[2] + 1e200
		return nil
	}
	var last TraceRecord
	state := []float64{1, 1, 1}
	res, err := Solve(state, f, Options{
		MaxIterations: 100, Damping: 1,
		Trace: func(r TraceRecord) { last = r },
	})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if last.NonFiniteIndex != 2 {
		t.Errorf("trace non-finite index %d, want 2", last.NonFiniteIndex)
	}
	if !res.Diverged || res.NonFiniteIndex != 2 {
		t.Errorf("convergence summary %+v, want diverged at index 2", res)
	}
}

func TestConvergenceSummaryPopulated(t *testing.T) {
	f := func(in, out []float64) error {
		out[0] = 0.5*in[0] + 3
		return nil
	}
	res, err := Solve([]float64{0}, f, Options{Acceleration: AccelNone})
	if err != nil {
		t.Fatal(err)
	}
	d := Defaults()
	if !stats.ApproxEqual(res.Tolerance, d.Tolerance, 0, 0) || !stats.ApproxEqual(res.Damping, d.Damping, 0, 0) {
		t.Errorf("effective settings %+v, want defaults %+v", res, d)
	}
	if res.Iterations < 1 {
		t.Errorf("summary iterations %d, want >= 1", res.Iterations)
	}
	if res.DampedRounds != res.Iterations || res.AcceleratedRounds != 0 {
		t.Errorf("round counters %+v out of sync with iterations on an unaccelerated run", res)
	}
	if res.NonFiniteIndex != -1 {
		t.Errorf("non-finite index %d on a finite run", res.NonFiniteIndex)
	}

	// Budget exhaustion: neither converged nor diverged.
	grow := func(in, out []float64) error { out[0] = in[0] + 1; return nil }
	res, err = Solve([]float64{0}, grow, Options{MaxIterations: 10, Damping: 1})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if res.Converged || res.Diverged {
		t.Errorf("budget-exhausted summary %+v", res)
	}
	if res.Iterations != 10 {
		t.Errorf("summary iterations %d, want 10", res.Iterations)
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := func(in, out []float64) error {
		t.Error("map must not run under an already-cancelled context")
		return nil
	}
	state := []float64{0}
	res, err := Solve(state, f, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrDiverged) || errors.Is(err, ErrMaxIterations) {
		t.Errorf("cancellation must stay distinct from iteration failures: %v", err)
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0 (cancelled before the first round)", res.Iterations)
	}
}

func TestSolveDeadlineCancelsMidIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	// A map that never converges; cancel after the third round.
	f := func(in, out []float64) error {
		rounds++
		if rounds == 3 {
			cancel()
		}
		out[0] = in[0] + 1
		return nil
	}
	state := []float64{0}
	res, err := Solve(state, f, Options{Ctx: ctx, MaxIterations: 100000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds != 3 {
		t.Errorf("map ran %d rounds after cancellation, want exactly 3", rounds)
	}
	if res.Iterations != 3 {
		t.Errorf("Convergence.Iterations = %d, want 3", res.Iterations)
	}
	if res.Converged || res.Diverged {
		t.Errorf("cancelled run reported Converged/Diverged: %+v", res)
	}
}

func TestSolveNilContextIgnored(t *testing.T) {
	f := func(in, out []float64) error {
		out[0] = 0.5*in[0] + 3
		return nil
	}
	state := []float64{0}
	if _, err := Solve(state, f, Options{}); err != nil {
		t.Fatalf("nil Ctx must behave as no cancellation: %v", err)
	}
}
