package core

import (
	"testing"

	"kncube/internal/fixpoint"
)

// BenchmarkRound splits one fixed-point round at every variant's
// near-saturation point into its two costs. "iterate" is one evaluation of
// the model's map. "anderson" is one round of the Anderson-accelerated
// driver apart from the map: it replays a recorded solve, answering each
// map call with the value Iterate returned there, so the driver takes the
// identical rounds (safeguard, history update, normal equations,
// candidate, state update) while the map costs one copy of the state. The
// replays share one workspace, grown before the timer starts, as a
// prepared solver's solves do, so the rows time rounds, not the scratch a
// solve allocates on entry.
func BenchmarkRound(b *testing.B) {
	opts := fixpoint.Options{Tolerance: 1e-9, MaxIterations: 20000, Damping: 0.5, Acceleration: fixpoint.AccelAnderson}
	for _, name := range Solvers() {
		spec := goldenSpec(name)
		spec.Lambda = nearSatLambda(name)
		s, err := NewSolver(name, spec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		s.Prepare()
		x0 := make([]float64, s.StateSize())
		s.InitState(x0)

		// Record the solve: every map input, output and error in order.
		var ins, outs [][]float64
		var errs []error
		record := func(in, out []float64) error {
			err := s.Iterate(in, out)
			ins = append(ins, append([]float64(nil), in...))
			outs = append(outs, append([]float64(nil), out...))
			errs = append(errs, err)
			return err
		}
		state := append([]float64(nil), x0...)
		if _, err := fixpoint.Solve(state, record, opts); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		rounds := len(ins)

		b.Run(name+"/iterate", func(b *testing.B) {
			out := make([]float64, len(x0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = s.Iterate(ins[i%rounds], out)
			}
		})
		b.Run(name+"/anderson", func(b *testing.B) {
			next := 0
			replay := func(_, out []float64) error {
				copy(out, outs[next])
				next++
				return errs[next-1]
			}
			var ws fixpoint.Workspace
			copy(state, x0)
			_, _ = ws.Solve(state, replay, opts)
			o := opts
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += o.MaxIterations {
				o.MaxIterations = min(rounds, b.N-done)
				copy(state, x0)
				next = 0
				_, _ = ws.Solve(state, replay, o)
			}
		})
	}
}
