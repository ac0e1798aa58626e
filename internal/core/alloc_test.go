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
			if err := s.Validate(); err != nil {
				t.Fatalf("Validate(%q): %v", name, err)
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
