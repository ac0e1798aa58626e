package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"kncube/internal/core"

	"kncube/internal/stats"
)

func TestFiguresCoverPaperEvaluation(t *testing.T) {
	panels := Figures()
	if len(panels) != 6 {
		t.Fatalf("%d panels, want 6 (two figures x three h values)", len(panels))
	}
	seen := map[string]bool{}
	for _, p := range panels {
		if seen[p.ID] {
			t.Errorf("duplicate panel id %s", p.ID)
		}
		seen[p.ID] = true
		if p.K != 16 || p.V < 2 {
			t.Errorf("%s: K=%d V=%d, want the paper's N=256, V>=2", p.ID, p.K, p.V)
		}
		if p.Lm != 32 && p.Lm != 100 {
			t.Errorf("%s: Lm=%d, want 32 or 100", p.ID, p.Lm)
		}
		if !stats.ApproxEqual(p.H, 0.2, 0, 0) && !stats.ApproxEqual(p.H, 0.4, 0, 0) && !stats.ApproxEqual(p.H, 0.7, 0, 0) {
			t.Errorf("%s: H=%v, want 0.2/0.4/0.7", p.ID, p.H)
		}
		if len(p.Lambdas) < 5 {
			t.Errorf("%s: only %d axis points", p.ID, len(p.Lambdas))
		}
		for i := 1; i < len(p.Lambdas); i++ {
			if p.Lambdas[i] <= p.Lambdas[i-1] {
				t.Errorf("%s: axis not increasing", p.ID)
			}
		}
	}
}

func TestFigureAxesMatchPaper(t *testing.T) {
	// The last axis point must match the paper's plotted range.
	want := map[string]float64{
		"fig1-h20": 6e-4, "fig1-h40": 4e-4, "fig1-h70": 2e-4,
		"fig2-h20": 2e-4, "fig2-h40": 1.2e-4, "fig2-h70": 7e-5,
	}
	for _, p := range Figures() {
		if max := p.Lambdas[len(p.Lambdas)-1]; math.Abs(max-want[p.ID]) > 1e-12 {
			t.Errorf("%s: axis max %v, want %v", p.ID, max, want[p.ID])
		}
	}
}

func TestPanelByID(t *testing.T) {
	p, err := PanelByID("fig2-h40")
	if err != nil || p.Lm != 100 || !stats.ApproxEqual(p.H, 0.4, 0, 0) {
		t.Errorf("PanelByID: %+v, %v", p, err)
	}
	if _, err := PanelByID("nope"); err == nil {
		t.Error("unknown panel accepted")
	}
}

func TestRunModelAndSaturation(t *testing.T) {
	p, _ := PanelByID("fig1-h20")
	res, err := core.Solve(DefaultModel, p.Spec(p.Lambdas[0]), core.Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Latency < float64(p.Lm) {
		t.Errorf("latency %v below message length", res.Latency)
	}
	sat, err := SaturationPoint(DefaultModel, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sat <= p.Lambdas[0] || sat > 2*p.Lambdas[len(p.Lambdas)-1] {
		t.Errorf("saturation %v outside plausible panel range", sat)
	}
}

// TestModelCurveMarksSaturation: saturated loads become NaN,
// ModelSaturated points, while an error that is not saturation — here a
// retired blocking form, which core.Solve refuses as a field error —
// fails the curve instead of masquerading as a saturated one.
func TestModelCurveMarksSaturation(t *testing.T) {
	p, _ := PanelByID("fig1-h70")
	pts, err := ModelCurve(DefaultModel, p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(p.Lambdas) {
		t.Fatalf("%d points", len(pts))
	}
	finite := 0
	for _, pt := range pts {
		if pt.ModelSaturated {
			if !math.IsNaN(pt.Model) {
				t.Error("saturated point has finite model value")
			}
		} else {
			finite++
		}
	}
	if finite == 0 {
		t.Error("no finite model points on the h=70% panel")
	}

	retired, err := ModelCurve(DefaultModel, p, core.Options{Blocking: 2})
	var fe *core.FieldError
	if !errors.As(err, &fe) || fe.Field != "options.blocking" || retired != nil {
		t.Errorf("retired blocking form 2: points %v, err %v, want no curve and an options.blocking field error", retired, err)
	}
}

func TestRunSimSmallPanel(t *testing.T) {
	// A small network keeps the test fast while exercising the full path.
	p := Panel{ID: "test", K: 4, V: 2, Lm: 8, H: 0.3, Lambdas: []float64{0.002}}
	res, err := RunSim(context.Background(), DefaultModel, p, 0.002, SimBudget{WarmupCycles: 2000, MaxCycles: 100000, MinMeasured: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured < 1000 || res.MeanLatency < 8 {
		t.Errorf("implausible sim result %+v", res)
	}
}

func TestRunPanelEndToEnd(t *testing.T) {
	p := Panel{ID: "test", K: 4, V: 2, Lm: 8, H: 0.3,
		Lambdas: []float64{0.001, 0.003}}
	res, err := Sweep{Jobs: 1, Reps: 1, Budget: SimBudget{WarmupCycles: 1000, MaxCycles: 60000, MinMeasured: 500, Seed: 1}}.
		RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	pts := res[0].Points
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Sim <= 0 {
			t.Errorf("missing sim value at %v", pt.Lambda)
		}
		if !pt.ModelSaturated && pt.Model <= 0 {
			t.Errorf("missing model value at %v", pt.Lambda)
		}
	}
	if pts[1].Sim <= pts[0].Sim {
		t.Errorf("sim latency not increasing: %v then %v", pts[0].Sim, pts[1].Sim)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	pts := []Point{
		{Lambda: 1e-4, Model: 50.5, Sim: 49.9, SimCI: 0.4, SimMeasured: 1000},
		{Lambda: 2e-4, Model: math.NaN(), ModelSaturated: true, Sim: 80, SimCI: 2, SimSaturated: true, SimMeasured: 900},
	}
	if err := WriteCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "lambda,model") {
		t.Errorf("bad header %q", lines[0])
	}
	if !strings.Contains(lines[2], ",true,") {
		t.Errorf("saturation flags missing: %q", lines[2])
	}
}

func TestWriteTable(t *testing.T) {
	var sb strings.Builder
	pts := []Point{
		{Lambda: 1e-4, Model: 50.5, Sim: 49.9, SimCI: 0.4},
		{Lambda: 2e-4, Model: math.NaN(), ModelSaturated: true, Sim: 80, SimCI: 2, SimSaturated: true},
	}
	if err := WriteTable(&sb, "panel", pts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "saturated") || !strings.Contains(out, "50.5") {
		t.Errorf("table missing content:\n%s", out)
	}
}

func TestAsciiPlot(t *testing.T) {
	var sb strings.Builder
	pts := []Point{
		{Lambda: 1e-4, Model: 50, Sim: 49},
		{Lambda: 2e-4, Model: 60, Sim: 58},
		{Lambda: 3e-4, Model: math.NaN(), ModelSaturated: true, Sim: 200},
	}
	if err := AsciiPlot(&sb, "test plot", pts, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("plot missing marks:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines < 11 {
		t.Errorf("plot too short: %d lines", lines)
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	var sb strings.Builder
	if err := AsciiPlot(&sb, "empty", nil, 40, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no finite points") {
		t.Errorf("unexpected output %q", sb.String())
	}
}

func TestShapeReport(t *testing.T) {
	zero := 50.0
	pts := []Point{
		{Lambda: 1e-4, Model: 52, Sim: 50},
		{Lambda: 2e-4, Model: 60, Sim: 58},
		{Lambda: 3e-4, Model: math.NaN(), ModelSaturated: true, Sim: 90},
		{Lambda: 4e-4, Model: math.NaN(), ModelSaturated: true, Sim: 500},
	}
	rep := Shape(pts, zero)
	if rep.LightPoints != 2 {
		t.Errorf("light points %d, want 2", rep.LightPoints)
	}
	if !rep.ModelSaturates || !stats.ApproxEqual(rep.ModelSaturation, 3e-4, 0, 0) {
		t.Errorf("model saturation %v (saturates=%v)", rep.ModelSaturation, rep.ModelSaturates)
	}
	if !rep.SimHasKnee || !stats.ApproxEqual(rep.SimKnee, 4e-4, 0, 0) {
		t.Errorf("sim knee %v (hasKnee=%v)", rep.SimKnee, rep.SimHasKnee)
	}
	if rep.MeanRelErrLight <= 0 || rep.MaxRelErrLight < rep.MeanRelErrLight {
		t.Errorf("rel errors %v %v", rep.MeanRelErrLight, rep.MaxRelErrLight)
	}
}

func TestShapeReportNoLightPoints(t *testing.T) {
	rep := Shape([]Point{{Lambda: 1, Model: math.NaN(), ModelSaturated: true, Sim: 1000}}, 50)
	if rep.LightPoints != 0 || !stats.IsZero(rep.MeanRelErrLight) {
		t.Errorf("%+v", rep)
	}
}

func TestShapeReportNoEvents(t *testing.T) {
	// Neither side blows up: the positions must be NaN (not a value a real
	// first-point event could produce) and the flags false.
	pts := []Point{
		{Lambda: 1e-4, Model: 52, Sim: 50},
		{Lambda: 2e-4, Model: 60, Sim: 58},
	}
	rep := Shape(pts, 50)
	if rep.ModelSaturates || !math.IsNaN(rep.ModelSaturation) {
		t.Errorf("phantom model saturation: %v (saturates=%v)", rep.ModelSaturation, rep.ModelSaturates)
	}
	if rep.SimHasKnee || !math.IsNaN(rep.SimKnee) {
		t.Errorf("phantom sim knee: %v (hasKnee=%v)", rep.SimKnee, rep.SimHasKnee)
	}
}

func TestShapeReportFirstPointEvents(t *testing.T) {
	// Events on the very first axis point must be distinguishable from
	// "never happened" — the regression the 0-sentinel caused.
	pts := []Point{{Lambda: 1e-4, Model: math.NaN(), ModelSaturated: true, Sim: 900}}
	rep := Shape(pts, 50)
	if !rep.ModelSaturates || !stats.ApproxEqual(rep.ModelSaturation, 1e-4, 0, 0) {
		t.Errorf("first-point model saturation missed: %+v", rep)
	}
	if !rep.SimHasKnee || !stats.ApproxEqual(rep.SimKnee, 1e-4, 0, 0) {
		t.Errorf("first-point sim knee missed: %+v", rep)
	}
}
