// Package kncube reproduces "Analytical Modelling of Hot-Spot Traffic in
// Deterministically-Routed K-Ary N-Cubes" (S. Loucif, M. Ould-Khaoua,
// G. Min; Proc. 19th IEEE IPDPS, 2005).
//
// The package offers:
//
//   - the paper's analytical model of mean message latency in a wormhole-
//     switched 2-D torus with deterministic (dimension-order) routing,
//     virtual channels, and Pfister-Norton hot-spot traffic ("hotspot-2d"),
//     with a uniform-traffic baseline ("uniform");
//   - validated generalisations: the bidirectional torus
//     ("bidirectional-2d") and the general k-ary n-cube ("ndim"), which at
//     k = 2 is also the hypercube baseline of the authors' predecessor
//     paper ("hypercube"); every variant is solved through Solve, Prepare
//     or SolveBatch and answers with one SolveResult;
//   - the flit-level simulator the paper validates against (NewSimulator),
//     supporting unidirectional and bidirectional channels and both
//     deterministic and minimal-adaptive routing;
//   - the experiment harness regenerating every panel of the paper's
//     Figures 1 and 2 (see internal/experiments, cmd/khs-figures, and the
//     benchmarks in bench_test.go).
//
// Quick start:
//
//	res, err := kncube.Solve("hotspot-2d", kncube.ModelSpec{
//		K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
//	}, kncube.ModelOptions{})
//	if err != nil { ... }
//	fmt.Println("mean latency:", res.Latency, "cycles")
//
// All times are network cycles (one flit per channel per cycle); all rates
// are messages per node per cycle.
package kncube

import (
	"kncube/internal/core"
	"kncube/internal/fixpoint"
	"kncube/internal/sim"
	"kncube/internal/surface"
	"kncube/internal/telemetry"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// --- Solver registry ---------------------------------------------------------

// ModelSpec is the variant-independent parameter set accepted by Solve: the
// union of the registered variants' parameters. Fields a variant does not
// model are rejected by that variant (e.g. the uniform baseline requires
// H = 0); zero K or Dims select the variant's natural default.
type ModelSpec = core.Spec

// SolveResult is the solved model every variant produces: the latency
// decomposition, the busiest channel's utilisation and the convergence
// summary.
type SolveResult = core.SolveResult

// Convergence summarises a solver's fixed-point iteration; every solved
// result carries one.
type Convergence = core.Convergence

// TraceRecord is one fixed-point iteration snapshot, delivered to the
// ModelOptions.FixPoint.Trace callback.
type TraceRecord = fixpoint.TraceRecord

// Models returns the registered model-variant names, sorted.
func Models() []string { return core.Solvers() }

// Solve evaluates the named model variant — "hotspot-2d",
// "bidirectional-2d", "uniform", "ndim" or "hypercube" (ndim at K = 2) —
// through the shared instrumented fixed-point driver; every variant answers with the same
// SolveResult. Validate "bidirectional-2d" against a simulator with
// SimConfig.Bidirectional set and "hypercube" against SimConfig{K: 2,
// Dims: n}.
func Solve(model string, s ModelSpec, o ModelOptions) (*SolveResult, error) {
	return core.Solve(model, s, o)
}

// Acceleration selects the fixed-point iteration's extrapolation scheme,
// set through ModelOptions.FixPoint.Acceleration.
type Acceleration = fixpoint.Acceleration

// Acceleration schemes: safeguarded Anderson mixing (the default, the zero
// value) and the damped baseline. AccelNone is bit-identical to the
// historical iteration; Anderson agrees with it to within the convergence
// tolerance, refuses only the loads it refuses, and cuts the round count
// near saturation.
const (
	AccelAnderson = fixpoint.AccelAnderson
	AccelNone     = fixpoint.AccelNone
)

// ParseAcceleration maps a scheme name ("" or "anderson", "none") to its
// Acceleration value; the CLIs use it for their -accel flags.
func ParseAcceleration(name string) (Acceleration, error) {
	return fixpoint.ParseAcceleration(name)
}

// PreparedSolver is a validated, prepared model instance re-solvable for
// many offered loads without repeating the spec-invariant setup. Not safe
// for concurrent use.
type PreparedSolver = core.PreparedSolver

// Prepare validates and prepares the named variant once; see
// PreparedSolver.Solve and PreparedSolver.SolveWarm.
func Prepare(model string, s ModelSpec, o ModelOptions) (*PreparedSolver, error) {
	return core.Prepare(model, s, o)
}

// BatchOptions configure SolveBatch; the zero value solves each item
// cold, bit-identical to independent Solve calls.
type BatchOptions = core.BatchOptions

// BatchItem is one spec's outcome in a SolveBatch: exactly one of Result
// and Err is set.
type BatchItem = core.BatchItem

// SolveBatch solves many specs of one model variant, preparing once per
// distinct topology shape. Per-spec failures land in the item's Err; only
// an unknown model fails the whole batch.
func SolveBatch(model string, specs []ModelSpec, o BatchOptions) ([]BatchItem, error) {
	return core.SolveBatch(model, specs, o)
}

// --- Analytical models -------------------------------------------------------

// ModelOptions select the blocking form and the fixed-point iteration
// (DESIGN.md §4.7 and §10).
type ModelOptions = core.Options

// Blocking-delay forms. The zero value of ModelOptions selects
// BlockingVCOccupancy — the calibrated reconstruction used by all harness
// tooling; BlockingMultiServer is the light-load reference (DESIGN.md
// §4.7).
const (
	BlockingMultiServer = core.BlockingMultiServer
	BlockingVCOccupancy = core.BlockingVCOccupancy
)

// ErrSaturated is returned by the models beyond their saturation load.
var ErrSaturated = core.ErrSaturated

// SaturationLambda bisects for the largest stable load of any solver.
func SaturationLambda(solve func(lambda float64) error, lo, hi, relTol float64) (float64, error) {
	return core.SaturationLambda(solve, lo, hi, relTol)
}

// --- Latency surfaces --------------------------------------------------------

// SurfaceDef identifies a latency surface: a model variant, a topology
// shape, the result-affecting options, and the ascending (λ, h) grid axes.
type SurfaceDef = surface.Def

// Surface is a precomputed latency surface: the full latency decomposition
// solved on a (λ, h) grid with a saturation-frontier mask, answering
// off-grid queries by interpolation (monotone cubic in λ, linear in h).
type Surface = surface.Surface

// SurfaceBuildOptions configure BuildSurface (iteration knobs, progress).
type SurfaceBuildOptions = surface.BuildOptions

// SurfaceLookup is one interpolated answer: the latency decomposition
// plus a relative error estimate from the interpolant's curvature.
type SurfaceLookup = surface.Lookup

// Surface lookup refusals: the caller should fall back to Solve.
var (
	ErrSurfaceOutOfRange     = surface.ErrOutOfRange
	ErrSurfaceNearSaturation = surface.ErrNearSaturation
)

// BuildSurface solves the definition's full (λ, h) grid — each h row one
// prepared solver swept along λ with warm starts, stopping at the row's
// saturation frontier — and returns the queryable surface. Persist it
// with WriteSurfaceFile and load it back with ReadSurfaceFile.
func BuildSurface(d SurfaceDef, o SurfaceBuildOptions) (*Surface, error) {
	return surface.Build(d, o)
}

// WriteSurfaceFile encodes s into dir under a content-addressed name in
// the compact checksummed binary format, returning the path.
func WriteSurfaceFile(dir string, s *Surface) (string, error) {
	return surface.WriteFile(dir, s)
}

// ReadSurfaceFile decodes a surface written by WriteSurfaceFile,
// verifying its checksum and structure.
func ReadSurfaceFile(path string) (*Surface, error) {
	return surface.ReadFile(path)
}

// --- Simulator ---------------------------------------------------------------

// SimConfig configures the flit-level wormhole simulator.
type SimConfig = sim.Config

// SimRunOptions control a measurement run.
type SimRunOptions = sim.RunOptions

// SimResult summarises a run.
type SimResult = sim.Result

// Simulator is a flit-level network instance.
type Simulator = sim.Network

// Routing selects the simulator's routing algorithm: the paper's
// deterministic dimension-order routing, or minimal adaptive routing with
// Duato-style escape channels (the comparison point of the paper's
// introduction).
type Routing = sim.Routing

// Routing algorithms.
const (
	RoutingDimensionOrder = sim.RoutingDimensionOrder
	RoutingAdaptive       = sim.RoutingAdaptive
)

// Message is one simulated wormhole message (visible through delivery
// callbacks).
type Message = sim.Message

// NewSimulator builds a simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return sim.New(cfg) }

// --- Telemetry ---------------------------------------------------------------

// MetricsRegistry is a named registry of counters, gauges and histograms
// with Prometheus-text and JSON exposition; recording is lock-free and
// allocation-free on the hot path (see internal/telemetry and DESIGN.md §7).
type MetricsRegistry = telemetry.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// SimCollector receives the simulator's instrumentation events; set
// SimConfig.Collector to instrument a run (nil leaves the simulator
// uninstrumented at negligible cost).
type SimCollector = sim.Collector

// SimRunStats carries the end-of-run aggregates delivered to a collector.
type SimRunStats = sim.RunStats

// NewSimCollector returns a collector recording the khs_sim_* metric set
// (per-channel flit counts and utilisation, blocking-cycle and queue-depth
// histograms, message counters, cycles/second) into reg.
func NewSimCollector(reg *MetricsRegistry) SimCollector {
	return sim.NewTelemetryCollector(reg)
}

// --- Topology and traffic ----------------------------------------------------

// NodeID identifies a node.
type NodeID = topology.NodeID

// Cube is the k-ary n-cube topology.
type Cube = topology.Cube

// NewCube returns a k-ary n-cube.
func NewCube(k, n int) (*Cube, error) { return topology.New(k, n) }

// Arrivals is a temporal arrival process; Pattern a spatial destination
// pattern.
type (
	Arrivals = traffic.Arrivals
	Pattern  = traffic.Pattern
)

// Traffic constructors.
var (
	NewPoisson   = traffic.NewPoisson
	NewBernoulli = traffic.NewBernoulli
	NewMMPP      = traffic.NewMMPP
	NewHotSpot   = traffic.NewHotSpot
)

// UniformPattern returns uniform destination traffic over cube.
func UniformPattern(cube *Cube) Pattern { return traffic.Uniform{Cube: cube} }

// TransposePattern returns the matrix-transpose permutation pattern.
func TransposePattern(cube *Cube) Pattern { return traffic.Transpose{Cube: cube} }

// BitReversalPattern returns the bit-reversal permutation pattern.
func BitReversalPattern(cube *Cube) Pattern { return traffic.BitReversal{Cube: cube} }
