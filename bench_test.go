package kncube_test

// Benchmark harness regenerating the paper's evaluation. One benchmark per
// figure panel (Figures 1 and 2, h = 20/40/70%) plus the ablation studies
// from DESIGN.md. Each panel benchmark sweeps the paper's traffic axis,
// evaluating the analytical model and the flit-level simulator at every
// point, and logs the regenerated figure data (run with -v to see it).
//
// Shapes to expect (EXPERIMENTS.md records a full run): latency flat at
// light load, knee, saturation; saturation rate decreasing in h and Lm;
// model within a few percent of simulation at light load and conservative
// (higher) toward the knee.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kncube"
	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// benchBudget keeps a full six-panel regeneration affordable inside the
// benchmark harness; cmd/khs-figures uses the larger default budget.
func benchBudget() experiments.SimBudget {
	return experiments.SimBudget{
		WarmupCycles: 5000, MaxCycles: 120000, MinMeasured: 1500, Seed: 1,
	}
}

func benchmarkPanel(b *testing.B, id string) {
	panel, err := experiments.PanelByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// The sweep engine parallelises the panel's points across the machine;
	// results are bit-identical to a one-worker sweep.
	sweep := experiments.Sweep{Jobs: runtime.NumCPU(), Budget: benchBudget()}
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunPanels(context.Background(), []experiments.Panel{panel})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sb strings.Builder
			title := panel.Figure + " " + panel.Label
			if err := experiments.WriteTable(&sb, title, res[0].Points); err != nil {
				b.Fatal(err)
			}
			b.Log("\n" + sb.String())
		}
	}
}

func BenchmarkFigure1H20(b *testing.B) { benchmarkPanel(b, "fig1-h20") }
func BenchmarkFigure1H40(b *testing.B) { benchmarkPanel(b, "fig1-h40") }
func BenchmarkFigure1H70(b *testing.B) { benchmarkPanel(b, "fig1-h70") }
func BenchmarkFigure2H20(b *testing.B) { benchmarkPanel(b, "fig2-h20") }
func BenchmarkFigure2H40(b *testing.B) { benchmarkPanel(b, "fig2-h40") }
func BenchmarkFigure2H70(b *testing.B) { benchmarkPanel(b, "fig2-h70") }

// BenchmarkFiguresSweep regenerates all six panels in one sweep — the
// whole evaluation as a single worker-pool run, the way cmd/khs-figures
// executes it. Compare against the sum of the per-panel benchmarks to see
// the cross-panel parallelism win.
func BenchmarkFiguresSweep(b *testing.B) {
	sweep := experiments.Sweep{Jobs: runtime.NumCPU(), Budget: benchBudget()}
	for i := 0; i < b.N; i++ {
		res, err := sweep.RunPanels(context.Background(), experiments.Figures())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pr := range res {
				sat := 0
				for _, pt := range pr.Points {
					if pt.ModelSaturated {
						sat++
					}
				}
				b.Logf("%s: %d points, %d model-saturated", pr.Panel.ID, len(pr.Points), sat)
			}
		}
	}
}

// BenchmarkAblationBlocking compares the blocking-delay compositions
// (DESIGN.md §4.7): the calibrated VC-occupancy form against the
// multi-server pool. The retired literal readings are frozen in
// results/ablations.csv.
func BenchmarkAblationBlocking(b *testing.B) {
	panel, _ := experiments.PanelByID("fig1-h40")
	forms := map[string]core.BlockingForm{
		"vc-occupancy": core.BlockingVCOccupancy,
		"multi-server": core.BlockingMultiServer,
	}
	for i := 0; i < b.N; i++ {
		for name, form := range forms {
			pts, err := experiments.ModelCurve(experiments.DefaultModel, panel, core.Options{Blocking: form})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("blocking=%s: %s", name, summarise(pts))
			}
		}
	}
}

// BenchmarkAblationEjection contrasts the paper's contention-free ejection
// (assumption (iv)) with a single 1-flit/cycle ejection channel.
func BenchmarkAblationEjection(b *testing.B) {
	cube := topology.MustNew(8, 2)
	hs, err := traffic.NewHotSpot(cube, 27, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for name, contention := range map[string]bool{"free": false, "contended": true} {
			nw, err := kncube.NewSimulator(kncube.SimConfig{
				K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: 1.5e-3,
				Pattern: hs, Seed: 3, EjectionContention: contention,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := nw.Run(kncube.SimRunOptions{
				WarmupCycles: 5000, MaxCycles: 150000, MinMeasured: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("ejection=%s: latency %.1f (hot %.1f)", name, res.MeanLatency, res.MeanHot)
			}
		}
	}
}

// BenchmarkExtensionBursty exercises the paper's future-work direction:
// MMPP (bursty) generation at the same mean rate as Poisson.
func BenchmarkExtensionBursty(b *testing.B) {
	cube := topology.MustNew(8, 2)
	hs, err := traffic.NewHotSpot(cube, 36, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	const lambda = 1.5e-3
	factories := map[string]func(topology.NodeID) traffic.Arrivals{
		"poisson": func(topology.NodeID) traffic.Arrivals {
			p, _ := traffic.NewPoisson(lambda)
			return p
		},
		"mmpp-4x": func(topology.NodeID) traffic.Arrivals {
			m, _ := traffic.NewMMPP(4*lambda, lambda/50, 4000*(lambda-lambda/50)/(4*lambda-lambda), 4000)
			return m
		},
	}
	for i := 0; i < b.N; i++ {
		for name, f := range factories {
			nw, err := kncube.NewSimulator(kncube.SimConfig{
				K: 8, Dims: 2, VCs: 2, MsgLen: 16,
				Pattern: hs, ArrivalsFactory: f, Seed: 9,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := nw.Run(kncube.SimRunOptions{
				WarmupCycles: 10000, MaxCycles: 200000, MinMeasured: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("arrivals=%s: latency %.1f saturated=%v", name, res.MeanLatency, res.Saturated)
			}
		}
	}
}

// BenchmarkExtensionBidirectional exercises the bidirectional-channel
// generalisation (Section 2's "easily extended" remark): model and
// simulator, against their unidirectional counterparts at equal load.
func BenchmarkExtensionBidirectional(b *testing.B) {
	const lambda = 1.2e-3
	spec := kncube.ModelSpec{K: 8, V: 2, Lm: 16, H: 0.3, Lambda: lambda}
	cube := topology.MustNew(8, 2)
	hs, err := traffic.NewHotSpot(cube, 36, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		uniModel, err := kncube.Solve("hotspot-2d", spec, kncube.ModelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		biModel, err := kncube.Solve("bidirectional-2d", spec, kncube.ModelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var sims [2]kncube.SimResult
		for idx, bi := range []bool{false, true} {
			nw, err := kncube.NewSimulator(kncube.SimConfig{
				K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: lambda,
				Pattern: hs, Seed: 2, Bidirectional: bi,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := nw.Run(kncube.SimRunOptions{
				WarmupCycles: 5000, MaxCycles: 150000, MinMeasured: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			sims[idx] = res
		}
		if i == 0 {
			b.Logf("unidirectional: model %.1f, sim %.1f", uniModel.Latency, sims[0].MeanLatency)
			b.Logf("bidirectional:  model %.1f, sim %.1f", biModel.Latency, sims[1].MeanLatency)
		}
	}
}

// BenchmarkExtensionAdaptive reproduces the observation behind the paper's
// focus on deterministic routing (its ref [22]): under hot-spot traffic
// the destination fan-in dominates, so adaptive routing's advantage largely
// vanishes — while on permutation traffic it is substantial.
func BenchmarkExtensionAdaptive(b *testing.B) {
	cube := topology.MustNew(8, 2)
	hs, err := traffic.NewHotSpot(cube, 36, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	workloads := map[string]traffic.Pattern{
		"hotspot-50%": hs,
		"transpose":   traffic.Transpose{Cube: cube},
	}
	lambdas := map[string]float64{"hotspot-50%": 8e-4, "transpose": 4e-3}
	for i := 0; i < b.N; i++ {
		for name, pat := range workloads {
			var lat [2]float64
			for idx, routing := range []kncube.Routing{kncube.RoutingDimensionOrder, kncube.RoutingAdaptive} {
				nw, err := kncube.NewSimulator(kncube.SimConfig{
					K: 8, Dims: 2, VCs: 4, MsgLen: 16, Lambda: lambdas[name],
					Pattern: pat, Seed: 6, Routing: routing,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := nw.Run(kncube.SimRunOptions{
					WarmupCycles: 5000, MaxCycles: 200000, MinMeasured: 2500,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat[idx] = res.MeanLatency
			}
			if i == 0 {
				b.Logf("%s: deterministic %.1f vs adaptive %.1f (ratio %.2f)",
					name, lat[0], lat[1], lat[0]/lat[1])
			}
		}
	}
}

// BenchmarkModelSolve measures the cost of one analytical evaluation — the
// model's selling point over simulation (milliseconds vs. minutes).
func BenchmarkModelSolve(b *testing.B) {
	p := kncube.ModelSpec{K: 16, V: 2, Lm: 32, H: 0.4, Lambda: 2e-4}
	for i := 0; i < b.N; i++ {
		if _, err := kncube.Solve("hotspot-2d", p, kncube.ModelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveSpecs is the per-variant golden operating shape shared by the
// BenchmarkSolve* family; Lambda is the common light-load point.
var benchSolveSpecs = map[string]kncube.ModelSpec{
	"hotspot-2d":       {K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
	"bidirectional-2d": {K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
	"uniform":          {K: 16, Dims: 2, V: 2, Lm: 32, H: 0, Lambda: 7.5e-5},
	"hypercube":        {K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
	"ndim":             {K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5},
}

// benchNearSatLambda is an offered load close to (but below) each variant's
// saturation point at its benchSolveSpecs shape — the regime where the
// damped contraction rate approaches 1 and iteration counts blow up.
var benchNearSatLambda = map[string]float64{
	"hotspot-2d":       2.2e-4,
	"bidirectional-2d": 4.0e-4,
	"uniform":          1.5e-3,
	"hypercube":        1.05e-3,
	"ndim":             2.2e-4,
}

// BenchmarkSolve measures every registered model variant through the
// shared fixed-point driver, one sub-benchmark per registry name
// (BenchmarkSolve/hotspot-2d, BenchmarkSolve/uniform, ...), at a common
// light-load operating point each variant can represent.
func BenchmarkSolve(b *testing.B) {
	for _, name := range kncube.Models() {
		spec, ok := benchSolveSpecs[name]
		if !ok {
			b.Fatalf("no benchmark spec for registered solver %q — add one", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kncube.Solve(name, spec, kncube.ModelOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSize re-solves a prepared 2-D torus at a light load at
// two network sizes: K = 16, the shape serve traffic names, and K = 512,
// where the state no longer fits the caches and the assembly's path
// averages grow as K³. The workspace is grown before the timer starts, so
// a row times the rounds and the assembly, as a pooled solver pays them.
func BenchmarkSolveSize(b *testing.B) {
	for _, name := range []string{"hotspot-2d", "bidirectional-2d"} {
		for _, k := range []int{16, 512} {
			b.Run(fmt.Sprintf("%s/K=%d", name, k), func(b *testing.B) {
				spec := kncube.ModelSpec{K: k, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-7}
				ps, err := kncube.Prepare(name, spec, kncube.ModelOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ps.Solve(spec.Lambda); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ps.Solve(spec.Lambda); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveNearSat compares the damped baseline against safeguarded
// Anderson mixing at every variant's near-saturation operating point,
// reporting the fixed-point round count as iters/op alongside ns/op —
// khs-bench commits both to BENCH_solve.json, where the acceptance
// criterion is a reduced Anderson iteration count on every variant.
func BenchmarkSolveNearSat(b *testing.B) {
	schemes := []struct {
		label string
		accel kncube.Acceleration
	}{
		{"damped", kncube.AccelNone},
		{"anderson", kncube.AccelAnderson},
	}
	for _, name := range kncube.Models() {
		spec := benchSolveSpecs[name]
		spec.Lambda = benchNearSatLambda[name]
		for _, sc := range schemes {
			b.Run(name+"/"+sc.label, func(b *testing.B) {
				var o kncube.ModelOptions
				o.FixPoint.Acceleration = sc.accel
				b.ReportAllocs()
				var iters int64
				for i := 0; i < b.N; i++ {
					res, err := kncube.Solve(name, spec, o)
					if err != nil {
						b.Fatal(err)
					}
					iters += int64(res.Convergence.Iterations)
				}
				b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			})
		}
	}
}

// BenchmarkSolveBatch runs a sweep-shaped workload — one topology shape,
// a grid of offered loads from light load to near saturation — through
// repeated one-shot Solve calls, the batch driver, and the warm-started
// batch driver. One op is the full grid, so the single/batch ns/op ratio
// is exactly the per-spec speedup of shared preparation; iters/op is the
// grid's summed fixed-point round count (warm starts shrink it).
func BenchmarkSolveBatch(b *testing.B) {
	const model, points = "hotspot-2d", 16
	base := benchSolveSpecs[model]
	lo, hi := base.Lambda, benchNearSatLambda[model]
	specs := make([]kncube.ModelSpec, points)
	for i := range specs {
		specs[i] = base
		specs[i].Lambda = lo + float64(i)*(hi-lo)/(points-1)
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		var iters int64
		for i := 0; i < b.N; i++ {
			for _, sp := range specs {
				res, err := kncube.Solve(model, sp, kncube.ModelOptions{})
				if err != nil {
					b.Fatal(err)
				}
				iters += int64(res.Convergence.Iterations)
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
	for _, warm := range []bool{false, true} {
		label := "batch"
		if warm {
			label = "batch-warm"
		}
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			var iters int64
			for i := 0; i < b.N; i++ {
				items, err := kncube.SolveBatch(model, specs, kncube.BatchOptions{WarmStart: warm})
				if err != nil {
					b.Fatal(err)
				}
				for j, it := range items {
					if it.Err != nil {
						b.Fatalf("item %d (λ=%g): %v", j, specs[j].Lambda, it.Err)
					}
					iters += int64(it.Result.Convergence.Iterations)
				}
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// BenchmarkSurfaceLookup prices the latency-surface serving path against
// the exact solver it replaces, at an off-grid hotspot-2d query hugging
// the near-saturation operating point — the regime where the exact fixed
// point is at its most expensive and the surface pays off hardest. One op
// answers one (h, λ) query; the surface build is amortised outside the
// timer. BENCH_solve.json tracks the exact/surface ns/op ratio with a
// >= 10x acceptance floor.
func BenchmarkSurfaceLookup(b *testing.B) {
	const model = "hotspot-2d"
	base := benchSolveSpecs[model]
	const nl = 24
	lams := make([]float64, nl)
	for i := range lams {
		lams[i] = base.Lambda + float64(i)*(benchNearSatLambda[model]-base.Lambda)/float64(nl-1)
	}
	sfc, err := kncube.BuildSurface(kncube.SurfaceDef{
		Model: model, K: base.K, Dims: base.Dims, V: base.V, Lm: base.Lm,
		Hs: []float64{0.1, 0.2, 0.3}, Lambdas: lams,
	}, kncube.SurfaceBuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	q := base
	q.Lambda = (lams[nl-2] + lams[nl-1]) / 2 // off-grid, inside the last interval

	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kncube.Solve(model, q, kncube.ModelOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("surface", func(b *testing.B) {
		// The speedup only counts if the interpolant still agrees with the
		// exact answer at this query.
		exact, err := kncube.Solve(model, q, kncube.ModelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lk, err := sfc.Eval(q.H, q.Lambda)
		if err != nil {
			b.Fatal(err)
		}
		if rel := (lk.Latency - exact.Latency) / exact.Latency; rel > 0.01 || rel < -0.01 {
			b.Fatalf("interpolated latency %v vs exact %v: relative error %v beyond 1%%",
				lk.Latency, exact.Latency, rel)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sfc.Eval(q.H, q.Lambda); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSurfaceBuild times the surface builds a khs-serve warm-up
// runs: one op builds the six Figure-panel surfaces, each a single h row
// of four λ knots per panel load point (32 knots), under the default
// Anderson scheme and under the damped opt-out. iters/op is the summed
// fixed-point round count of the build solves.
func BenchmarkSurfaceBuild(b *testing.B) {
	var defs []kncube.SurfaceDef
	for _, p := range experiments.Figures() {
		top := p.Lambdas[len(p.Lambdas)-1]
		lams := make([]float64, 4*len(p.Lambdas))
		for i := range lams {
			lams[i] = top * float64(i+1) / float64(len(lams))
		}
		defs = append(defs, kncube.SurfaceDef{Model: experiments.DefaultModel,
			K: p.K, Dims: 2, V: p.V, Lm: p.Lm, Hs: []float64{p.H}, Lambdas: lams})
	}
	for _, sc := range []struct {
		label string
		accel kncube.Acceleration
	}{
		{"anderson", kncube.AccelAnderson},
		{"damped", kncube.AccelNone},
	} {
		b.Run(sc.label, func(b *testing.B) {
			var o kncube.SurfaceBuildOptions
			o.FixPoint.Acceleration = sc.accel
			iters := 0
			o.FixPoint.Trace = func(fixpoint.TraceRecord) { iters++ }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range defs {
					if _, err := kncube.BuildSurface(d, o); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// BenchmarkSimulatorStep measures the simulator's cycle throughput on the
// paper's 256-node network under moderate hot-spot load.
func BenchmarkSimulatorStep(b *testing.B) {
	cube := topology.MustNew(16, 2)
	hs, err := traffic.NewHotSpot(cube, 136, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: 16, Dims: 2, VCs: 2, MsgLen: 32, Lambda: 2e-4,
		Pattern: hs, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the network into steady state before timing.
	for i := 0; i < 20000; i++ {
		nw.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// BenchmarkSimulatorStepSaturated measures the cost of one cycle past the
// knee: the fig1-h20 shape (K = 16, V = 2, Lm = 32, h = 0.2, hot node at
// the centre) at λ = 6e-4, where the khs-figures sweep runs to its cycle
// cap. After the 200 000-cycle warm-up most held virtual channels are
// blocked, so the number measures what a cycle pays for the flits that
// wait.
func BenchmarkSimulatorStepSaturated(b *testing.B) {
	cube := topology.MustNew(16, 2)
	hs, err := traffic.NewHotSpot(cube, cube.FromCoords([]int{8, 8}), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: 16, Dims: 2, VCs: 2, MsgLen: 32, Lambda: 6e-4,
		Pattern: hs, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		nw.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step()
	}
}

// summarise renders a model curve as a compact latency sequence with "sat"
// marking saturated points.
func summarise(pts []experiments.Point) string {
	parts := make([]string, 0, len(pts))
	for _, pt := range pts {
		if pt.ModelSaturated {
			parts = append(parts, "sat")
		} else {
			parts = append(parts, fmt.Sprintf("%.1f", pt.Model))
		}
	}
	return strings.Join(parts, " ")
}
