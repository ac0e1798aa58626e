package fixpoint

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// TestAndersonRoundsAllocFree pins the accelerated-round contract: Solve
// allocates its scratch at entry and each Anderson history slot once, as
// the history first fills, so past the first window columns its allocation
// count does not grow with the number of rounds it runs. The map's fixed
// point drifts slightly every round, so neither solve converges early and
// both keep taking accelerated steps.
func TestAndersonRoundsAllocFree(t *testing.T) {
	round := 0
	f := func(in, out []float64) error {
		round++
		drift := 1e-6 * math.Sin(float64(round))
		for i := range in {
			out[i] = math.Cos(in[(i+1)%len(in)]) + 0.1*float64(i) + drift
		}
		return nil
	}
	state := make([]float64, 16)
	solve := func(rounds int) (float64, Convergence) {
		var conv Convergence
		n := testing.AllocsPerRun(10, func() {
			for i := range state {
				state[i] = 0
			}
			conv, _ = Solve(state, f, Options{
				Tolerance: 1e-300, MaxIterations: rounds, Damping: 0.5, Acceleration: AccelAnderson,
			})
		})
		return n, conv
	}
	short, _ := solve(20)
	long, conv := solve(400)
	if conv.Iterations != 400 || conv.AcceleratedRounds < 50 {
		t.Fatalf("long solve ran %d rounds, %d accelerated; want 400 with >= 50 accelerated",
			conv.Iterations, conv.AcceleratedRounds)
	}
	if long > short {
		t.Errorf("Solve allocates %v times over 400 rounds, %v over 20: rounds allocate",
			long, short)
	}
}

// TestAndersonEarlyFailureAllocatesState pins what a solve that fails on
// its first round costs: the Anderson history grows with the rounds run,
// so a large state allocates O(n), not O(window·n), before the map has
// been evaluated once.
func TestAndersonEarlyFailureAllocatesState(t *testing.T) {
	const n = 1 << 16
	state := make([]float64, n)
	fail := errors.New("saturated")
	f := func(in, out []float64) error { return fail }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Solve(state, f, Options{Acceleration: AccelAnderson})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, fail) {
		t.Fatalf("Solve error %v, want the map's", err)
	}
	// next, rollback, rollbackF, initial, back, xLast and gLast: seven
	// state-sized buffers. The full window would be 2·window more.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*8*n); got > limit {
		t.Errorf("Solve allocated %d bytes before failing on round 1 of a %d-variable state, want <= %d",
			got, n, limit)
	}
}
