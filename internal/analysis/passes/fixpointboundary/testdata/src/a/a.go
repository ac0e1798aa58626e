// Package a exercises the fixpointboundary analyzer: direct fixpoint.Solve
// use outside internal/core is flagged, through the package function or a
// Workspace; other fixpoint API stays free.
package a

import "kncube/internal/fixpoint"

func direct() {
	state := []float64{1}
	_, _ = fixpoint.Solve(state, nil, fixpoint.Options{}) // want `fixpoint\.Solve outside the internal/core driver`
}

var solveRef = fixpoint.Solve // want `fixpoint\.Solve outside the internal/core driver`

func reused(ws *fixpoint.Workspace) {
	_, _ = ws.Solve([]float64{1}, nil, fixpoint.Options{}) // want `fixpoint\.Workspace\.Solve outside the internal/core driver`
}

var methodExpr = (*fixpoint.Workspace).Solve // want `fixpoint\.Workspace\.Solve outside the internal/core driver`

func sizing(ws *fixpoint.Workspace) int { // the workspace's sizing stays free
	return ws.Size()
}

func options() fixpoint.Options { // the rest of the fixpoint API: allowed
	return fixpoint.Defaults()
}

func suppressed() {
	//lint:ignore fixpointboundary fixture exercises the suppression path
	_, _ = fixpoint.Solve([]float64{1}, nil, fixpoint.Options{})
}
