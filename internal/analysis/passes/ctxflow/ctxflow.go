// Package ctxflow defines the analyzer enforcing context discipline:
// cancellation must flow from the process entry points down to the
// solvers and sweeps, never be re-rooted in the middle. A stray
// context.Background() half-way down a call chain silently detaches
// everything below it from Ctrl-C, server shutdown, and deadlines —
// exactly the bug class that made long sweeps unkillable before the
// signal plumbing existed.
package ctxflow

import (
	"go/ast"
	"go/types"

	"kncube/internal/analysis"
	"kncube/internal/analysis/analysisutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `restrict context.Background()/TODO() to designated roots; forbid nil contexts

Production code may mint a fresh context only where a lifetime genuinely
starts: func main in a package main, or an allowlisted construction site
(serve.New owns the server's background lifetime). Everywhere else a
function must thread the context it was given — reaching for
context.Background() mid-stack detaches callees from cancellation.
Passing a nil context at a context.Context parameter is always flagged.
The three sites that deliberately re-root (the RunPanels nil-ctx
fallback, experiments.ModelCurve, which takes no context, and
khs-serve's drain deadline) carry reasoned //lint:ignore directives.
Test files are exempt.`,
	Run: run,
}

// allowedRoots are non-main production functions allowed to mint a
// fresh context: package path → function name. serve.New creates the
// server's own background lifetime, cancelled by Server.Shutdown.
var allowedRoots = map[string]map[string]bool{
	"kncube/internal/serve": {"New": true},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.InTestFile(fd.Pos()) {
				continue
			}
			root := isDesignatedRoot(pass, fd)
			ast.Inspect(fd.Body, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := analysisutil.Callee(pass.TypesInfo, call); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					if !root {
						pass.Reportf(call.Pos(), "context.%s() outside a designated root; thread the caller's context instead of re-rooting cancellation", fn.Name())
					}
					return true
				}
				checkNilContextArgs(pass, call)
				return true
			})
		}
	}
	return nil
}

// isDesignatedRoot reports whether fd may mint a fresh context: func
// main of a package main, or an allowlisted construction function.
func isDesignatedRoot(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	if pass.Pkg != nil && pass.Pkg.Name() == "main" && fd.Name.Name == "main" {
		return true
	}
	if pass.Pkg != nil {
		if fns, ok := allowedRoots[pass.Pkg.Path()]; ok && fns[fd.Name.Name] {
			return true
		}
	}
	return false
}

// checkNilContextArgs flags a literal nil passed where the callee wants
// a context.Context.
func checkNilContextArgs(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		if !isContextType(params.At(i).Type()) {
			continue
		}
		if analysisutil.IsNil(pass.TypesInfo, arg) {
			pass.Reportf(arg.Pos(), "nil context passed; thread the caller's context (or context.Background() at a designated root)")
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
