package fixpoint

import "testing"

// TestNilRoutedTraceAddsNoAllocations pins the contract span.FixpointTrace
// relies on: installing a Trace callback that routes through a nil
// indirection (the hook-variable pattern — the callback is captured at
// prepare time, the span recorder only exists per solve) costs zero
// additional allocations per Solve compared to no callback at all. The
// TraceRecord is passed by value and must not escape.
func TestNilRoutedTraceAddsNoAllocations(t *testing.T) {
	// A 4-variable contraction with a comfortable fixed point; ~20 damped
	// rounds at the default tolerance.
	f := func(in, out []float64) error {
		for i := range in {
			out[i] = 0.5*in[i] + float64(i+1)
		}
		return nil
	}
	solveWith := func(opts Options) func() {
		state := make([]float64, 4)
		return func() {
			for i := range state {
				state[i] = 0
			}
			if _, err := Solve(state, f, opts); err != nil {
				t.Fatal(err)
			}
		}
	}

	bare := testing.AllocsPerRun(100, solveWith(Options{}))

	var round func(TraceRecord) // nil: the sampled-out / untraced case
	routed := Options{Trace: func(tr TraceRecord) {
		if round != nil {
			round(tr)
		}
	}}
	withHook := testing.AllocsPerRun(100, solveWith(routed))

	//lint:ignore floateq alloc counts are small integers; exact equality is the contract
	if withHook != bare {
		t.Errorf("nil-routed Trace changes Solve allocations: %v with hook, %v bare", withHook, bare)
	}
}
