// Package fixpointboundary defines an analyzer enforcing the solver.go
// layering contract: fixpoint.Solve and its reusable form, the
// (*fixpoint.Workspace).Solve method, are called only by the shared driver
// in internal/core (and by the fixpoint package itself). Every model variant
// and every solve entry point — the one-shot core.Solve (a core.Prepare
// followed by one PreparedSolver.Solve), the prepared path, and the batch
// driver (core.SolveBatch) — must funnel through that driver
// (core.finishSolve, reached through PreparedSolver), because it is the
// single place where defaulted tolerances, ErrSaturated classification of
// divergence, and the Convergence summary are produced; a direct
// fixpoint.Solve call would ship a result missing all three.
package fixpointboundary

import (
	"go/ast"
	"go/types"

	"kncube/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "fixpointboundary",
	Doc: `restrict fixpoint.Solve calls to the shared driver in internal/core

Nothing below internal/core may call fixpoint.Solve, or the Solve method of
a fixpoint.Workspace (the same iteration on reused scratch), directly: the driver
(core.finishSolve, reached through PreparedSolver by core.Solve, the
prepared re-solve path and core.SolveBatch) owns option defaulting, saturation classification, and
convergence reporting. Batch or prepared callers in higher layers
(experiments, serve) must go through those core entry points. Test files
are exempt — the fixpoint package's own tests exercise Solve directly by
design.`,
	Run: run,
}

// allowedPkgs are the packages whose production code may reference
// fixpoint.Solve.
var allowedPkgs = map[string]bool{
	"kncube/internal/core":     true,
	"kncube/internal/fixpoint": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && allowedPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || pass.InTestFile(id.Pos()) {
				return true
			}
			if name := boundary(fn); name != "" {
				pass.Reportf(id.Pos(), "%s outside the internal/core driver; route solvers through core.Solve so saturation classification and convergence reporting apply", name)
			}
			return true
		})
	}
	return nil
}

// boundary names fn when it is one of the two entries into the
// fixed-point iteration, the package-level fixpoint.Solve and the
// (*fixpoint.Workspace).Solve method, and returns "" otherwise.
func boundary(fn *types.Func) string {
	if fn.Name() != "Solve" || fn.Pkg() == nil || fn.Pkg().Path() != "kncube/internal/fixpoint" {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "fixpoint.Solve"
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Workspace" {
		return "fixpoint.Workspace.Solve"
	}
	return ""
}
