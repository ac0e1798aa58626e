package khslint_test

import (
	"strings"
	"testing"

	"kncube/internal/analysis"
	"kncube/internal/analysis/analysistest"
	"kncube/internal/analysis/callgraph"
	"kncube/internal/analysis/khslint"
	"kncube/internal/analysis/load"
)

// TestRepoIsLintClean is the dogfood gate: the whole module (tests
// included) must satisfy every khs-lint invariant. A failure here means a
// change reintroduced one of the bug classes the suite encodes — fix the
// code, or suppress a genuinely intentional site with a reasoned
// //lint:ignore directive.
func TestRepoIsLintClean(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	diags, err := khslint.Run(root, "./...")
	if err != nil {
		t.Fatalf("khslint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLintGateCoversObservabilityPackages pins the package set behind the
// "./..." pattern TestRepoIsLintClean relies on: if a build tag, module
// boundary, or loader regression silently dropped the telemetry layer (or
// any other instrumented package) from the load, the repo-clean gate would
// pass vacuously. Listing the packages here makes that failure loud.
func TestLintGateCoversObservabilityPackages(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("load.Load: %v", err)
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.ImportPath] = true
	}
	for _, want := range []string{
		"kncube",
		"kncube/internal/fixpoint",
		"kncube/internal/core",
		"kncube/internal/queueing",
		"kncube/internal/stats",
		"kncube/internal/telemetry",
		"kncube/internal/telemetry/span",
		"kncube/internal/topology",
		"kncube/internal/traffic",
		"kncube/internal/vcmodel",
		"kncube/internal/sim",
		"kncube/internal/experiments",
		"kncube/internal/serve",
		"kncube/internal/surface",
		"kncube/internal/surface/shard",
		"kncube/internal/analysis",
		"kncube/internal/analysis/callgraph",
		"kncube/internal/analysis/passes/ctxflow",
		"kncube/internal/analysis/passes/hotalloc",
		"kncube/internal/analysis/passes/hotblock",
		"kncube/internal/analysis/passes/metricname",
		"kncube/cmd/khs-sim",
		"kncube/cmd/khs-model",
		"kncube/cmd/khs-figures",
		"kncube/cmd/khs-serve",
		"kncube/cmd/khs-bench",
		"kncube/cmd/khs-lint",
	} {
		if !loaded[want] {
			t.Errorf("lint gate does not cover %s (not in the ./... load)", want)
		}
	}
}

func TestSuiteIsComplete(t *testing.T) {
	want := map[string]bool{
		"ctxflow":          true,
		"fixpointboundary": true,
		"floateq":          true,
		"hotalloc":         true,
		"hotblock":         true,
		"metricname":       true,
		"registerinit":     true,
		"saturationerr":    true,
		"seedderive":       true,
	}
	if len(khslint.All) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(khslint.All), len(want))
	}
	for _, a := range khslint.All {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q missing doc", a.Name)
		}
		unit, program := a.Run != nil, a.RunProgram != nil
		if unit == program {
			t.Errorf("analyzer %q must set exactly one of Run/RunProgram (unit=%v program=%v)",
				a.Name, unit, program)
		}
	}
}

// TestHotPathRootsArePinned is the negative control for the whole-program
// passes: it rebuilds the production call graph and asserts the
// //khs:hotpath annotation set actually covers the functions the
// "0 allocs/op, no blocking" story is about. If someone deletes an
// annotation, hotalloc and hotblock silently stop auditing that subtree —
// this test turns that silence into a failure.
func TestHotPathRootsArePinned(t *testing.T) {
	root := analysistest.ModuleRoot(t)
	pkgs, err := load.Load(root, "./...")
	if err != nil {
		t.Fatalf("load.Load: %v", err)
	}
	var units []analysis.Unit
	for _, p := range pkgs {
		units = append(units, analysis.Unit{
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Types,
			TypesInfo: p.TypesInfo,
		})
	}
	g := callgraph.Build(units)
	roots := map[string]bool{}
	for _, n := range g.HotRoots() {
		roots[n.String()] = true
	}
	for _, want := range []string{
		"sim.(*Network).Step",
		"fixpoint.Solve",
		"telemetry.(*Counter).Inc",
		"telemetry.(*Gauge).Set",
		"telemetry.(*Histogram).Observe",
		"core.(*model).Iterate",
		"core.(*biModel).Iterate",
		"core.(*ndimModel).Iterate",
		"core.(*uniformModel).Iterate",
	} {
		if !roots[want] {
			t.Errorf("expected //khs:hotpath root %s is not annotated", want)
		}
	}

	// Reachability sanity: the audit set must extend through interface
	// dispatch and stdlib callbacks, not stop at the root's own body.
	reach := g.Reachable(g.HotRoots()...)
	var names []string
	for _, n := range reach.Nodes() {
		names = append(names, n.String())
	}
	joined := strings.Join(names, "\n")
	for _, want := range []string{
		"sim.(*Network).generate",         // static call chain below Step
		"sim.(*genHeap).Less",             // container/heap callback
		"stats.(*Histogram).Add",          // cross-package delivery path
		"fixpoint.(*accelState).anderson", // acceleration rounds
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("hot-path reachable set is missing %s;\nthe call graph lost an edge kind", want)
		}
	}
}
