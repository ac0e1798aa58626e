package a

import "kncube/internal/fixpoint"

// Tests may drive the iteration machinery directly.
func solveInTest() {
	_, _ = fixpoint.Solve([]float64{1}, nil, fixpoint.Options{})
	var ws fixpoint.Workspace
	_, _ = ws.Solve([]float64{1}, nil, fixpoint.Options{})
}
