// Package experiments regenerates the paper's evaluation: every panel of
// Figures 1 and 2 (model-vs-simulation latency curves), the ablation studies
// listed in DESIGN.md, and the sweep/rendering machinery they share.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"kncube/internal/core"
	"kncube/internal/sim"
	"kncube/internal/stats"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// Panel describes one figure panel: a latency-vs-load curve at fixed
// network parameters, reproducing the paper's axes.
type Panel struct {
	// ID names the experiment, e.g. "fig1-h20".
	ID string
	// Figure and Label locate it in the paper ("Figure 1", "h=20%").
	Figure, Label string
	// K, V, Lm, H parameterise the network (n = 2 throughout, N = K²).
	K, V, Lm int
	H        float64
	// Lambdas is the traffic axis in messages/node/cycle.
	Lambdas []float64
}

// Figures returns the paper's six validation panels. Axis ranges follow the
// figures: Lm = 32 flits with h ∈ {20, 40, 70}% (Figure 1) and Lm = 100
// flits with the same h values (Figure 2); N = 256 nodes (k = 16). The
// paper does not state V; V = 2 is the minimum satisfying assumption (vi)
// and the value its companion models [12, 21] validate with.
func Figures() []Panel {
	axis := func(max float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = max * float64(i+1) / float64(n)
		}
		return out
	}
	return []Panel{
		{ID: "fig1-h20", Figure: "Figure 1", Label: "h=20%, Lm=32",
			K: 16, V: 2, Lm: 32, H: 0.2, Lambdas: axis(6e-4, 8)},
		{ID: "fig1-h40", Figure: "Figure 1", Label: "h=40%, Lm=32",
			K: 16, V: 2, Lm: 32, H: 0.4, Lambdas: axis(4e-4, 8)},
		{ID: "fig1-h70", Figure: "Figure 1", Label: "h=70%, Lm=32",
			K: 16, V: 2, Lm: 32, H: 0.7, Lambdas: axis(2e-4, 8)},
		{ID: "fig2-h20", Figure: "Figure 2", Label: "h=20%, Lm=100",
			K: 16, V: 2, Lm: 100, H: 0.2, Lambdas: axis(2e-4, 8)},
		{ID: "fig2-h40", Figure: "Figure 2", Label: "h=40%, Lm=100",
			K: 16, V: 2, Lm: 100, H: 0.4, Lambdas: axis(1.2e-4, 8)},
		{ID: "fig2-h70", Figure: "Figure 2", Label: "h=70%, Lm=100",
			K: 16, V: 2, Lm: 100, H: 0.7, Lambdas: axis(7e-5, 8)},
	}
}

// PanelByID returns the named panel from Figures.
func PanelByID(id string) (Panel, error) {
	for _, p := range Figures() {
		if p.ID == id {
			return p, nil
		}
	}
	return Panel{}, fmt.Errorf("experiments: unknown panel %q", id)
}

// Point is one sweep sample: the model's prediction and the simulator's
// measurement at one offered load.
type Point struct {
	Lambda float64
	// Model is the analytical latency; NaN when the model reports
	// saturation (ModelSaturated true).
	Model          float64
	ModelSaturated bool
	// Sim is the simulated mean latency with CI95 half-width; SimSaturated
	// marks runs whose backlog kept growing (the sample then reflects a
	// lower bound, as in the paper's figures near saturation).
	Sim          float64
	SimCI        float64
	SimSaturated bool
	SimMeasured  int64
}

// SimBudget bounds the simulation effort per point.
type SimBudget struct {
	WarmupCycles int64
	MaxCycles    int64
	MinMeasured  int64
	Seed         int64
}

// DefaultSimBudget returns the budget used by the benchmark harness: enough
// for stable means at light and moderate load on N = 256 networks while
// keeping a full panel affordable.
func DefaultSimBudget() SimBudget {
	return SimBudget{WarmupCycles: 30000, MaxCycles: 600000, MinMeasured: 4000, Seed: 1}
}

// DefaultModel is the registry name of the paper's primary model, used
// wherever a solver name is not given explicitly.
const DefaultModel = "hotspot-2d"

// Spec is the model spec of one panel point: the panel's 2-D torus shape
// at offered load lambda. Solve it with core.Solve or prepare the panel's
// shape once with core.Prepare; variants that cannot represent a panel
// (e.g. "hypercube" with K = 16, or "uniform" with H > 0) fail with the
// factory's error.
func (p Panel) Spec(lambda float64) core.Spec {
	return core.Spec{K: p.K, Dims: 2, V: p.V, Lm: p.Lm, H: p.H, Lambda: lambda}
}

// simBidirectional maps a model-variant name to the simulator channel
// configuration it is validated against.
func simBidirectional(model string) bool { return model == "bidirectional-2d" }

// RunSim measures one panel point with the flit-level simulator configured
// for the named model variant: bidirectional channels for
// "bidirectional-2d", unidirectional otherwise. The hot node is placed at
// the centre of the torus (its location is immaterial on a torus; tests
// verify the symmetry). The run returns the context's error promptly after
// cancellation or deadline expiry.
func RunSim(ctx context.Context, model string, p Panel, lambda float64, budget SimBudget) (sim.Result, error) {
	cube, err := topology.New(p.K, 2)
	if err != nil {
		return sim.Result{}, err
	}
	hot := cube.FromCoords([]int{p.K / 2, p.K / 2})
	pattern, err := traffic.NewHotSpot(cube, hot, p.H)
	if err != nil {
		return sim.Result{}, err
	}
	nw, err := sim.New(sim.Config{
		K: p.K, Dims: 2, VCs: p.V, MsgLen: p.Lm,
		Lambda: lambda, Pattern: pattern, Seed: budget.Seed,
		Bidirectional: simBidirectional(model),
	})
	if err != nil {
		return sim.Result{}, err
	}
	return nw.Run(sim.RunOptions{
		Ctx:          ctx,
		WarmupCycles: budget.WarmupCycles,
		MaxCycles:    budget.MaxCycles,
		MinMeasured:  budget.MinMeasured,
	})
}

// ModelCurve evaluates only the analytical side of a panel under the named
// model variant (cheap; used by the ablation benchmarks), through the
// sweep's one prepared solver per panel. A saturated load is a NaN,
// ModelSaturated point; any other solve error (an unknown model, a bad
// option, a spec the variant rejects) fails the curve. Like Sweep.Opts,
// opts.FixPoint.Trace is replaced by the sweep's own round counter.
func ModelCurve(model string, p Panel, opts core.Options) ([]Point, error) {
	//lint:ignore ctxflow ModelCurve's signature supplies no context: the curve is uncancellable, as each solve is unless opts.FixPoint.Ctx says otherwise
	mps, err := Sweep{Opts: opts}.solvePanelModels(context.TODO(), model, p)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(mps))
	for j, mp := range mps {
		if mp.outcome() == "error" {
			return nil, fmt.Errorf("experiments: %s model at lambda %v: %w", p.ID, p.Lambdas[j], mp.err)
		}
		points[j] = mp.point(p.Lambdas[j])
	}
	return points, nil
}

// SaturationPoint locates the named model variant's saturation load for a
// panel's parameters by bisection. A spec the variant rejects outright
// (rather than saturating) surfaces as the bracketing error.
func SaturationPoint(model string, p Panel, opts core.Options) (float64, error) {
	return core.SaturationLambda(func(lam float64) error {
		_, err := core.Solve(model, p.Spec(lam), opts)
		return err
	}, 1e-7, 0, 1e-3)
}

// WriteCSV renders points as CSV with a header row.
func WriteCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "lambda,model,model_saturated,sim,sim_ci95,sim_saturated,sim_measured"); err != nil {
		return err
	}
	for _, pt := range points {
		model := fmt.Sprintf("%.4f", pt.Model)
		if pt.ModelSaturated {
			model = ""
		}
		if _, err := fmt.Fprintf(w, "%.6g,%s,%v,%.4f,%.4f,%v,%d\n",
			pt.Lambda, model, pt.ModelSaturated, pt.Sim, pt.SimCI,
			pt.SimSaturated, pt.SimMeasured); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders points as an aligned text table in the style of the
// paper's figure data.
func WriteTable(w io.Writer, title string, points []Point) error {
	if _, err := fmt.Fprintf(w, "%s\n%-12s %-12s %-18s\n", title, "traffic", "model", "simulation"); err != nil {
		return err
	}
	for _, pt := range points {
		model := fmt.Sprintf("%12.1f", pt.Model)
		if pt.ModelSaturated {
			model = "   saturated"
		}
		simNote := ""
		if pt.SimSaturated {
			simNote = " (saturated)"
		}
		if _, err := fmt.Fprintf(w, "%-12.6g %s %12.1f ±%.1f%s\n",
			pt.Lambda, model, pt.Sim, pt.SimCI, simNote); err != nil {
			return err
		}
	}
	return nil
}

// AsciiPlot draws a crude latency-vs-load plot (model curve `*`, simulation
// `o`) for terminal inspection, mirroring the paper's figure layout.
func AsciiPlot(w io.Writer, title string, points []Point, width, height int) error {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	maxLat, maxLam := 0.0, 0.0
	for _, pt := range points {
		if !pt.ModelSaturated && pt.Model > maxLat {
			maxLat = pt.Model
		}
		if pt.Sim > maxLat {
			maxLat = pt.Sim
		}
		if pt.Lambda > maxLam {
			maxLam = pt.Lambda
		}
	}
	if stats.IsZero(maxLat) || stats.IsZero(maxLam) {
		_, err := fmt.Fprintf(w, "%s: no finite points\n", title)
		return err
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	place := func(lam, lat float64, ch byte) {
		if math.IsNaN(lat) {
			return
		}
		x := int(lam / maxLam * float64(width-1))
		y := height - 1 - int(lat/maxLat*float64(height-1))
		if x >= 0 && x < width && y >= 0 && y < height {
			if grid[y][x] != ' ' && grid[y][x] != ch {
				grid[y][x] = '#' // overlap
			} else {
				grid[y][x] = ch
			}
		}
	}
	for _, pt := range points {
		if !pt.ModelSaturated {
			place(pt.Lambda, pt.Model, '*')
		}
		place(pt.Lambda, pt.Sim, 'o')
	}
	if _, err := fmt.Fprintf(w, "%s  (latency 0..%.0f cycles, traffic 0..%.3g; * model, o simulation)\n",
		title, maxLat, maxLam); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s\n", row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	return err
}

// ShapeReport compares the model curve against simulation points the way
// the paper's Section 4 discusses its figures: agreement at light and
// moderate load, divergence allowed near saturation.
type ShapeReport struct {
	// MeanRelErrLight is the mean |model-sim|/sim over the points whose
	// simulated latency is below twice the zero-load latency.
	MeanRelErrLight float64
	// MaxRelErrLight is the worst such point.
	MaxRelErrLight float64
	// LightPoints counts them.
	LightPoints int
	// ModelSaturation and SimKnee report where each side blows up: the
	// first lambda at which the model saturates, and the first lambda at
	// which the simulated latency exceeds 4x zero-load. Both are NaN when
	// the event never happens — a real value always marks a genuine event,
	// even one on the first axis point (a 0 sentinel could not tell the
	// two apart). ModelSaturates and SimHasKnee carry the same distinction
	// as booleans.
	ModelSaturation float64
	SimKnee         float64
	ModelSaturates  bool
	SimHasKnee      bool
}

// Shape summarises model-vs-sim agreement for a panel's points; zeroLoad is
// the analytic zero-load latency used to split light from heavy load.
func Shape(points []Point, zeroLoad float64) ShapeReport {
	rep := ShapeReport{ModelSaturation: math.NaN(), SimKnee: math.NaN()}
	var rels []float64
	for _, pt := range points {
		if pt.ModelSaturated && !rep.ModelSaturates {
			rep.ModelSaturates = true
			rep.ModelSaturation = pt.Lambda
		}
		if pt.Sim > 4*zeroLoad && !rep.SimHasKnee {
			rep.SimHasKnee = true
			rep.SimKnee = pt.Lambda
		}
		if !pt.ModelSaturated && pt.Sim > 0 && pt.Sim < 2*zeroLoad {
			rels = append(rels, math.Abs(pt.Model-pt.Sim)/pt.Sim)
		}
	}
	rep.LightPoints = len(rels)
	if len(rels) > 0 {
		sort.Float64s(rels)
		sum := 0.0
		for _, r := range rels {
			sum += r
		}
		rep.MeanRelErrLight = sum / float64(len(rels))
		rep.MaxRelErrLight = rels[len(rels)-1]
	}
	return rep
}
