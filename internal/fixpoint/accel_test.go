package fixpoint

import (
	"errors"
	"math"
	"testing"
)

// slowContraction is a coupled linear system with contraction ratio ~0.95:
// slow enough under damped substitution that both schemes get to show an
// iteration-count win.
func slowContraction(in, out []float64) error {
	out[0] = 0.95*in[0] + 0.02*in[1] + 1
	out[1] = 0.02*in[0] + 0.95*in[1] + 2
	return nil
}

func solveSlow(t *testing.T, accel Acceleration) ([]float64, Convergence) {
	t.Helper()
	state := []float64{0, 0}
	res, err := Solve(state, slowContraction, Options{
		Tolerance: 1e-10, MaxIterations: 100000, Damping: 1, Acceleration: accel,
	})
	if err != nil {
		t.Fatalf("accel %d: %v", accel, err)
	}
	return state, res
}

func TestAccelerationReachesSameFixedPoint(t *testing.T) {
	// The system's exact fixed point: (0.09, 0.12)/0.0021.
	want := []float64{0.09 / 0.0021, 0.12 / 0.0021}
	_, dres := solveSlow(t, AccelNone)
	for _, accel := range []Acceleration{AccelAnderson, AccelAitken} {
		state, res := solveSlow(t, accel)
		for i := range state {
			if math.Abs(state[i]-want[i]) > 1e-5 {
				t.Errorf("accel %d: state[%d] = %v, want %v", accel, i, state[i], want[i])
			}
		}
		if res.Iterations >= dres.Iterations {
			t.Errorf("accel %d took %d iterations, damped %d", accel, res.Iterations, dres.Iterations)
		}
		if res.AcceleratedRounds == 0 {
			t.Errorf("accel %d reported no accelerated rounds", accel)
		}
	}
}

func TestAcceleratedRoundCountersSumToIterations(t *testing.T) {
	for _, accel := range []Acceleration{AccelNone, AccelAnderson, AccelAitken} {
		_, res := solveSlow(t, accel)
		if res.AcceleratedRounds+res.DampedRounds != res.Iterations {
			t.Errorf("accel %d: %d accelerated + %d damped != %d iterations",
				accel, res.AcceleratedRounds, res.DampedRounds, res.Iterations)
		}
		if accel == AccelNone && res.AcceleratedRounds != 0 {
			t.Errorf("unaccelerated run reported %d accelerated rounds", res.AcceleratedRounds)
		}
	}
}

func TestTraceMarksAcceleratedRounds(t *testing.T) {
	var accTrue, accFalse int
	state := []float64{0, 0}
	res, err := Solve(state, slowContraction, Options{
		Tolerance: 1e-10, MaxIterations: 100000, Damping: 1, Acceleration: AccelAnderson,
		Trace: func(r TraceRecord) {
			if r.Accelerated {
				accTrue++
			} else {
				accFalse++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if accTrue != res.AcceleratedRounds || accFalse != res.DampedRounds {
		t.Errorf("trace saw %d accelerated / %d damped records, summary has %d / %d",
			accTrue, accFalse, res.AcceleratedRounds, res.DampedRounds)
	}
}

func TestAitkenRewindsOvershootIntoErrorDomain(t *testing.T) {
	// A map whose early iterates (0 -> 1 -> 1.9 -> 2.75) are shaped so the
	// Aitken Δ² extrapolation from the first chain overshoots to ~17, well
	// inside the map's error domain (> 10). The solver must rewind the
	// overshoot and still converge to the true fixed point at 3 instead of
	// propagating the domain error.
	errDomain := errors.New("outside model domain")
	f := func(in, out []float64) error {
		x := in[0]
		if x > 10 {
			return errDomain
		}
		switch {
		case x < 0.5:
			out[0] = 1
		case x < 1.5:
			out[0] = 1.9
		case x < 2.3:
			out[0] = 2.75
		default:
			out[0] = x + 0.8*(3-x)
		}
		return nil
	}
	state := []float64{0}
	res, err := Solve(state, f, Options{
		Tolerance: 1e-10, MaxIterations: 1000, Damping: 1, Acceleration: AccelAitken,
	})
	if err != nil {
		t.Fatalf("rewind failed, error escaped: %v", err)
	}
	if math.Abs(state[0]-3) > 1e-8 {
		t.Errorf("fixed point %v, want 3", state[0])
	}
	if res.AcceleratedRounds == 0 {
		t.Error("expected at least one accelerated round before the rewind")
	}
}

func TestAccelerationOptionValidation(t *testing.T) {
	ok := func(in, out []float64) error { copy(out, in); return nil }
	if _, err := Solve([]float64{0}, ok, Options{Acceleration: Acceleration(7)}); err == nil {
		t.Error("unknown acceleration scheme accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{Acceleration: AccelAnderson, Window: -1}); err == nil {
		t.Error("negative Window accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{Acceleration: AccelAnderson, Window: MaxWindow + 1}); err == nil {
		t.Error("Window above MaxWindow accepted")
	}
	if _, err := Solve([]float64{0}, ok, Options{Acceleration: AccelAnderson, Window: 2}); err != nil {
		t.Errorf("explicit Window rejected: %v", err)
	}
}

func TestParseAcceleration(t *testing.T) {
	for name, want := range map[string]Acceleration{
		"": AccelNone, "none": AccelNone,
		"anderson": AccelAnderson, "aitken": AccelAitken,
	} {
		got, err := ParseAcceleration(name)
		if err != nil || got != want {
			t.Errorf("ParseAcceleration(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseAcceleration("psychic"); err == nil {
		t.Error("ParseAcceleration accepted an unknown scheme")
	}
	// Parse and String round-trip so flag defaults and diagnostics agree.
	for _, a := range []Acceleration{AccelNone, AccelAnderson, AccelAitken} {
		if got, err := ParseAcceleration(a.String()); err != nil || got != a {
			t.Errorf("round-trip %v: got %v, %v", a, got, err)
		}
	}
}

func TestAccelerationPreservesCancellation(t *testing.T) {
	// The accelerated paths must not swallow map errors unrelated to
	// extrapolation: an error on a round that did not follow an accelerated
	// step propagates unchanged.
	sentinel := errors.New("saturated")
	f := func(in, out []float64) error { return sentinel }
	for _, accel := range []Acceleration{AccelAnderson, AccelAitken} {
		if _, err := Solve([]float64{0}, f, Options{Acceleration: accel}); !errors.Is(err, sentinel) {
			t.Errorf("accel %d: err = %v, want sentinel", accel, err)
		}
	}
}
