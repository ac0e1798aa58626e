package fixpoint

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// wsRun is one solve of the workspace reuse sequence. newMap builds a
// fresh instance of its map (maps here count their calls), so the reused
// and the fresh solve see the same sequence of values.
type wsRun struct {
	label  string
	n      int
	newMap func() Map
	opts   Options
	cancel int // > 0: cancel through Options.Ctx once this many rounds ran
}

// drifting never settles: its fixed point moves a little every round, so
// Anderson keeps extrapolating until the residual stalls at the drift and
// the attempt restarts damped.
func drifting() Map {
	round := 0
	return func(in, out []float64) error {
		round++
		drift := 1e-6 * math.Sin(float64(round))
		for i := range in {
			out[i] = math.Cos(in[(i+1)%len(in)]) + 0.1*float64(i) + drift
		}
		return nil
	}
}

// coupled converges, but slowly enough that Anderson takes about 25
// rounds, halving its residual all the way: a stall count or a lowest
// residual carried in from an earlier solve would restart it.
func coupled() Map {
	return func(in, out []float64) error {
		for i := range in {
			out[i] = 0.97*math.Tanh(in[(i+1)%len(in)]) + 0.02*in[i] + 0.3 + 0.01*float64(i)
		}
		return nil
	}
}

// failingAt errs on its call-th call, after accelerated rounds have built
// history: a refusal mid-iteration.
func failingAt(call int) func() Map {
	return func() Map {
		calls := 0
		inner := coupled()
		return func(in, out []float64) error {
			calls++
			if calls == call {
				return errors.New("saturated")
			}
			return inner(in, out)
		}
	}
}

// solveOn runs one solve of r on w (a fresh workspace when w is nil) and
// returns everything it observably produced.
func solveOn(w *Workspace, r wsRun, start float64) (state []float64, conv Convergence, errText string, trace []TraceRecord) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := r.opts
	o.Ctx = ctx
	o.Trace = func(tr TraceRecord) {
		trace = append(trace, tr)
		if r.cancel > 0 && tr.Iteration == r.cancel {
			cancel()
		}
	}
	// Each run starts somewhere else, so a stale restart point shows.
	state = make([]float64, r.n)
	for i := range state {
		state[i] = start + 0.01*float64(i)
	}
	var err error
	if w == nil {
		conv, err = Solve(state, r.newMap(), o)
	} else {
		conv, err = w.Solve(state, r.newMap(), o)
	}
	if err != nil {
		errText = err.Error()
	}
	return state, conv, errText, trace
}

// TestWorkspaceReuseMatchesFreshSolve runs one Workspace through solves
// that converge, stall and restart, fail mid-iteration, are cancelled and
// change the state size, and holds each to
// a fresh Solve: the same final state bit for bit, the same summary, error
// and round-by-round trace. A workspace that carried the safeguard
// residual, the stall count or the history from one solve into the next
// would diverge from the fresh solve here.
func TestWorkspaceReuseMatchesFreshSolve(t *testing.T) {
	anderson := func(tol float64, rounds int) Options {
		return Options{Tolerance: tol, MaxIterations: rounds, Damping: 0.5, Acceleration: AccelAnderson}
	}
	runs := []wsRun{
		{"converging", 16, coupled, anderson(1e-13, 2000), 0},
		{"converging again", 16, coupled, anderson(1e-13, 2000), 0},
		{"stalling", 16, drifting, anderson(1e-300, 80), 0},
		{"converging after a stall", 16, coupled, anderson(1e-13, 2000), 0},
		{"failing mid-iteration", 16, failingAt(9), anderson(1e-13, 2000), 0},
		{"cancelled", 16, drifting, anderson(1e-300, 80), 30},
		{"stalling after a cancel", 16, drifting, anderson(1e-300, 80), 0},
		{"smaller state", 7, drifting, anderson(1e-300, 80), 0},
		{"larger state", 24, coupled, anderson(1e-13, 2000), 0},
		{"damped", 24, coupled, Options{Tolerance: 1e-13, MaxIterations: 2000, Damping: 0.5, Acceleration: AccelNone}, 0},
		{"accelerated after damped", 24, drifting, anderson(1e-300, 80), 0},
	}
	var w Workspace
	for k, r := range runs {
		start := 0.1 * float64(k)
		gotX, gotConv, gotErr, gotTrace := solveOn(&w, r, start)
		wantX, wantConv, wantErr, wantTrace := solveOn(nil, r, start)
		for i := range wantX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Errorf("%s: state[%d] = %.17g on the reused workspace, %.17g fresh", r.label, i, gotX[i], wantX[i])
				break
			}
		}
		if gotConv != wantConv || gotErr != wantErr {
			t.Errorf("%s: reused %+v %q, fresh %+v %q", r.label, gotConv, gotErr, wantConv, wantErr)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Errorf("%s: the reused workspace's %d rounds differ from the fresh solve's %d",
				r.label, len(gotTrace), len(wantTrace))
		}
	}
}

// TestWorkspaceSecondSolveAllocatesNothing: once a workspace has grown to
// a shape, solving that shape again allocates nothing, damped or
// accelerated, and Size counts what it grew to: the map's output alone
// when damped; with Anderson eight state vectors, a column pair per
// window slot and the normal equations.
func TestWorkspaceSecondSolveAllocatesNothing(t *testing.T) {
	const n = 16
	for _, c := range []struct {
		o    Options
		size int
	}{
		{Options{Tolerance: 1e-300, MaxIterations: 200, Damping: 0.5, Acceleration: AccelAnderson}, (8+2*window)*n + 2*window*window + window},
		{Options{Tolerance: 1e-13, MaxIterations: 2000, Damping: 0.5, Acceleration: AccelNone}, n},
	} {
		o := c.o
		var w Workspace
		state := make([]float64, n)
		f := drifting()
		solve := func() {
			clear(state)
			_, _ = w.Solve(state, f, o)
		}
		solve()
		if n := testing.AllocsPerRun(10, solve); n > 0 {
			t.Errorf("accel %v: a second solve on the workspace allocates %v times, want 0", o.Acceleration, n)
		}
		held := len(w.next) + len(w.rollback) + len(w.rollbackF) + len(w.initial) +
			len(w.acc.back) + len(w.acc.xLast) + len(w.acc.gLast) + len(w.acc.zero) +
			len(w.acc.gramAll) + len(w.acc.gram) + len(w.acc.rhs)
		for i := range w.acc.u {
			held += len(w.acc.u[i]) + len(w.acc.dg[i])
		}
		if size := w.Size(); held != c.size || size != c.size {
			t.Errorf("accel %v: the workspace holds %d values and Size reports %d, want %d", o.Acceleration, held, size, c.size)
		}
	}
}
