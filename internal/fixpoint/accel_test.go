package fixpoint

import (
	"errors"
	"math"
	"testing"
)

// slowContraction is a coupled linear system with contraction ratio ~0.95:
// slow enough under damped substitution that Anderson gets to show an
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
	state, res := solveSlow(t, AccelAnderson)
	for i := range state {
		if math.Abs(state[i]-want[i]) > 1e-5 {
			t.Errorf("state[%d] = %v, want %v", i, state[i], want[i])
		}
	}
	if res.Iterations >= dres.Iterations {
		t.Errorf("Anderson took %d iterations, damped %d", res.Iterations, dres.Iterations)
	}
	if res.AcceleratedRounds == 0 {
		t.Error("Anderson reported no accelerated rounds")
	}
}

// TestZeroOptionsAreAnderson: a zero Acceleration is AccelAnderson — the
// same rounds, state and summary as an explicit request — and its
// workspace grows to what the explicit request's does, past the damped
// solve's single state vector.
func TestZeroOptionsAreAnderson(t *testing.T) {
	state := []float64{0, 0}
	var w Workspace
	res, err := w.Solve(state, slowContraction, Options{Tolerance: 1e-10, MaxIterations: 100000, Damping: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, wantRes := solveSlow(t, AccelAnderson)
	if res != wantRes || math.Float64bits(state[0]) != math.Float64bits(want[0]) ||
		math.Float64bits(state[1]) != math.Float64bits(want[1]) {
		t.Errorf("zero Acceleration: %v %+v, explicit Anderson: %v %+v", state, res, want, wantRes)
	}
	var explicit Workspace
	if _, err := explicit.Solve([]float64{0, 0}, slowContraction,
		Options{Tolerance: 1e-10, MaxIterations: 100000, Damping: 1, Acceleration: AccelAnderson}); err != nil {
		t.Fatal(err)
	}
	if got, want := w.Size(), explicit.Size(); got != want || got <= len(state) {
		t.Errorf("the workspace holds %d values, an explicit Anderson solve's %d, a damped solve's %d",
			got, want, len(state))
	}
}

func TestAcceleratedRoundCountersSumToIterations(t *testing.T) {
	for _, accel := range []Acceleration{AccelNone, AccelAnderson} {
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

func TestAndersonRollsBackExtrapolationOutsideDomain(t *testing.T) {
	// The iterates 0 -> 1 -> 1.95 make the first Anderson step (one
	// difference column: the secant through them) extrapolate to 20, past
	// the map's domain (> 10). There the map either errors or overflows
	// the next damped update. Either way the solver must restore the
	// pre-step state, redo the round damped, and still converge to the
	// fixed point at 3 instead of reporting the failure.
	errDomain := errors.New("outside model domain")
	for _, tc := range []struct {
		name    string
		outside func(out []float64) error
	}{
		{"map error", func([]float64) error { return errDomain }},
		{"overflow", func(out []float64) error { out[0] = math.Inf(1); return nil }},
	} {
		f := func(in, out []float64) error {
			x := in[0]
			switch {
			case x > 10:
				return tc.outside(out)
			case x < 0.5:
				out[0] = 1
			case x < 1.5:
				out[0] = 1.95
			default:
				out[0] = x + 0.8*(3-x)
			}
			return nil
		}
		var maxSeen float64
		state := []float64{0}
		res, err := Solve(state, f, Options{
			Tolerance: 1e-10, MaxIterations: 1000, Damping: 1, Acceleration: AccelAnderson,
			Trace: func(TraceRecord) { maxSeen = math.Max(maxSeen, state[0]) },
		})
		if err != nil {
			t.Fatalf("%s: rollback failed, error escaped: %v", tc.name, err)
		}
		if math.Abs(state[0]-3) > 1e-8 {
			t.Errorf("%s: fixed point %v, want 3", tc.name, state[0])
		}
		if maxSeen <= 10 {
			t.Errorf("%s: no iterate left the domain (max %v); the rollback was not exercised", tc.name, maxSeen)
		}
		if res.AcceleratedRounds == 0 {
			t.Errorf("%s: expected at least one accelerated round", tc.name)
		}
	}
}

func TestAccelerationOptionValidation(t *testing.T) {
	ok := func(in, out []float64) error { copy(out, in); return nil }
	if _, err := Solve([]float64{0}, ok, Options{Acceleration: Acceleration(7)}); err == nil {
		t.Error("unknown acceleration scheme accepted")
	}
}

func TestParseAcceleration(t *testing.T) {
	for name, want := range map[string]Acceleration{
		"": AccelAnderson, "anderson": AccelAnderson,
		"none": AccelNone,
	} {
		got, err := ParseAcceleration(name)
		if err != nil || got != want {
			t.Errorf("ParseAcceleration(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"psychic", "aitken"} {
		if _, err := ParseAcceleration(name); err == nil {
			t.Errorf("ParseAcceleration accepted the unknown scheme %q", name)
		}
	}
	// Parse and String round-trip so flag defaults and diagnostics agree.
	for _, a := range []Acceleration{AccelNone, AccelAnderson} {
		if got, err := ParseAcceleration(a.String()); err != nil || got != a {
			t.Errorf("round-trip %v: got %v, %v", a, got, err)
		}
	}
}

func TestAccelerationPreservesCancellation(t *testing.T) {
	// The accelerated path must not swallow map errors unrelated to
	// extrapolation: an error on a round that did not follow an accelerated
	// step propagates unchanged.
	sentinel := errors.New("saturated")
	f := func(in, out []float64) error { return sentinel }
	if _, err := Solve([]float64{0}, f, Options{Acceleration: AccelAnderson}); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}
