// Package metricname defines the whole-program analyzer guarding the
// telemetry namespace: every metric name handed to a Registry
// constructor follows the documented khs_<layer>_<name>_<unit>
// convention, is a compile-time constant (dashboards and alerts key on
// literal names — a name computed at runtime cannot be grepped or
// reviewed), and is registered at exactly one production site per
// metric kind. The duplicate check is what needs the whole program:
// two packages independently minting "khs_serve_solves_total" as a
// counter and a gauge is invisible to any per-package pass.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"kncube/internal/analysis"
	"kncube/internal/analysis/analysisutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: `enforce khs_<layer>_<name>_<unit> metric names, constant and registered once

Names passed to telemetry Registry constructors (Counter, Gauge,
Histogram) must be compile-time constant strings matching
khs_<layer>_..._<unit> with a known layer (sim, model, sweep, serve,
surface, fixpoint, runtime) and a known unit suffix (total, seconds, second,
cycles, ratio, size, entries, solves, sweeps, surfaces, depth, channel,
iterations, residual, bytes, goroutines, info). The <name> segment may
be empty when the layer and unit say it all (khs_runtime_goroutines).
Each name may be registered at one production call site only, and
always with the same metric kind. Test files are exempt.`,
	RunProgram: run,
}

var nameRE = regexp.MustCompile(`^khs(_[a-z0-9]+){2,}$`)

// layers are the sanctioned <layer> segments — the subsystem that owns
// the metric. "runtime" covers the Go runtime health gauges the daemon
// samples (goroutines, heap, GC pauses).
var layers = map[string]bool{
	"sim":      true,
	"model":    true,
	"sweep":    true,
	"serve":    true,
	"surface":  true,
	"fixpoint": true,
	"runtime":  true,
}

// unitSuffixes are the sanctioned trailing <unit> segments. "total"
// marks monotonic counters; "iterations" and "residual" are the
// dimensionless solver diagnostics.
var unitSuffixes = map[string]bool{
	"total":      true,
	"seconds":    true,
	"second":     true,
	"cycles":     true,
	"ratio":      true,
	"size":       true,
	"entries":    true,
	"solves":     true,
	"sweeps":     true,
	"surfaces":   true,
	"depth":      true,
	"channel":    true,
	"iterations": true,
	"residual":   true,
	"bytes":      true,
	"goroutines": true,
	// "info" marks the build-info gauge idiom: constant value 1 with
	// identifying labels (khs_serve_build_info).
	"info": true,
}

// constructors are the Registry methods that mint metrics.
var constructors = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

const telemetryPkg = "kncube/internal/telemetry"

// site is one production registration of a metric name.
type site struct {
	kind string
	pos  token.Pos
}

func run(pass *analysis.ProgramPass) error {
	seen := map[string][]site{}
	for _, u := range pass.Program.Units {
		for _, f := range u.Files {
			ast.Inspect(f, func(nd ast.Node) bool {
				call, ok := nd.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysisutil.Callee(u.TypesInfo, call)
				if fn == nil || !constructors[fn.Name()] || fn.Pkg() == nil ||
					fn.Pkg().Path() != telemetryPkg || !isRegistryMethod(fn) {
					return true
				}
				if pass.InTestFile(call.Pos()) || len(call.Args) == 0 {
					return true
				}
				arg := call.Args[0]
				tv, okTV := u.TypesInfo.Types[arg]
				if !okTV || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(), "metric name must be a compile-time constant string so dashboards and alerts can key on it")
					return true
				}
				name := constant.StringVal(tv.Value)
				checkConvention(pass, arg.Pos(), name)
				seen[name] = append(seen[name], site{kind: fn.Name(), pos: arg.Pos()})
				return true
			})
		}
	}
	reportDuplicates(pass, seen)
	return nil
}

func checkConvention(pass *analysis.ProgramPass, pos token.Pos, name string) {
	if !nameRE.MatchString(name) {
		pass.Reportf(pos, "metric name %q does not match the khs_<layer>_<name>_<unit> convention", name)
		return
	}
	segs := splitSegments(name)
	if !layers[segs[1]] {
		pass.Reportf(pos, "metric name %q uses unknown layer %q (want one of sim, model, sweep, serve, surface, fixpoint, runtime)", name, segs[1])
	}
	if last := segs[len(segs)-1]; !unitSuffixes[last] {
		pass.Reportf(pos, "metric name %q uses unknown unit suffix %q (see the metricname analyzer doc for the vocabulary)", name, last)
	}
}

// reportDuplicates flags every site past the first for a name, and
// kind conflicts at each conflicting site. Sites are ordered by
// position so reports are deterministic.
func reportDuplicates(pass *analysis.ProgramPass, seen map[string][]site) {
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := seen[name]
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		first := sites[0]
		for _, s := range sites[1:] {
			if s.kind != first.kind {
				pass.Reportf(s.pos, "metric %q registered as both %s and %s; one name must mean one metric kind", name, first.kind, s.kind)
			} else {
				pass.Reportf(s.pos, "metric %q already registered at %s; register each name exactly once per registry", name, pass.Program.Fset.Position(first.pos))
			}
		}
	}
}

// isRegistryMethod reports whether fn's receiver is *telemetry.Registry.
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, okP := t.(*types.Pointer); okP {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

func splitSegments(name string) []string {
	var segs []string
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '_' {
			segs = append(segs, name[start:i])
			start = i + 1
		}
	}
	return segs
}
