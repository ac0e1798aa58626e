package core

import "testing"

// TestIterateAllocFree pins the round contract: once Prepare has sized a
// solver's scratch, one fixed-point round allocates nothing, for every
// registered variant under every blocking form. khs-lint's hotalloc pass
// proves the same over the call graph; this samples it at run time.
func TestIterateAllocFree(t *testing.T) {
	forms := []BlockingForm{BlockingVCOccupancy, BlockingMultiServer}
	for _, name := range Solvers() {
		for _, form := range forms {
			spec := goldenSpec(name)
			s, err := NewSolver(name, spec, Options{Blocking: form})
			if err != nil {
				t.Fatalf("NewSolver(%q): %v", name, err)
			}
			s.Prepare()
			in := make([]float64, s.StateSize())
			out := make([]float64, len(in))
			s.InitState(in)
			if err := s.Iterate(in, out); err != nil {
				t.Fatalf("%s form %d: warm-up Iterate: %v", name, form, err)
			}
			n := testing.AllocsPerRun(20, func() {
				if err := s.Iterate(in, out); err != nil {
					t.Fatalf("%s form %d: Iterate: %v", name, form, err)
				}
			})
			if n > 0 {
				t.Errorf("%s form %d: Iterate allocates %v times per round, want 0", name, form, n)
			}
		}
	}
}

// TestAssembleAllocsIndependentOfSize pins the assembly half of the
// contract: the per-position buffers Assemble works in are scratch that
// Prepare sizes, and the result holds scalars only, so Assemble allocates
// once, for its SolveResult, for a large network as for a small one, for
// every registered variant.
func TestAssembleAllocsIndependentOfSize(t *testing.T) {
	const lambda = 1e-5 // light for every shape below
	sizes := map[string][2]Spec{
		"hotspot-2d":       {{K: 8}, {K: 64}},
		"bidirectional-2d": {{K: 8}, {K: 64}},
		"uniform":          {{K: 8}, {K: 64}},
		"hypercube":        {{Dims: 4}, {Dims: 10}},
		"ndim":             {{K: 8, Dims: 2}, {K: 8, Dims: 4}},
	}
	for _, name := range Solvers() {
		pair, ok := sizes[name]
		if !ok {
			t.Fatalf("no sizes for %q: add the variant to this table", name)
		}
		var allocs [2]int
		for i := range pair {
			s := &pair[i]
			s.V, s.Lm, s.Lambda = 2, 16, lambda
			if name != "uniform" {
				s.H = 0.2
			}
			ps := solvedState(t, name, *s)
			allocs[i] = int(testing.AllocsPerRun(10, func() {
				if _, err := ps.s.Assemble(ps.x, Convergence{}); err != nil {
					t.Fatalf("%s %+v: Assemble: %v", name, *s, err)
				}
			})) // AllocsPerRun averages whole counts over its runs
			if allocs[i] != 1 {
				t.Errorf("%s %+v: Assemble allocates %v times, want 1 (its SolveResult)", name, *s, allocs[i])
			}
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: Assemble allocates %v times at %+v, %v times at %+v",
				name, allocs[0], pair[0], allocs[1], pair[1])
		}
	}
}
