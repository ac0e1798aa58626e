package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"kncube/internal/core"

	"kncube/internal/stats"
)

// sweepTestPanel is small enough for the full model+sim path to run in
// milliseconds while exercising several axis points.
func sweepTestPanel() Panel {
	return Panel{ID: "sweep-test", K: 4, V: 2, Lm: 8, H: 0.3,
		Lambdas: []float64{0.001, 0.002, 0.003}}
}

func sweepTestBudget() SimBudget {
	return SimBudget{WarmupCycles: 1000, MaxCycles: 60000, MinMeasured: 500, Seed: 1}
}

// renderCSV renders panel results to a canonical string for byte-level
// comparison across engine configurations.
func renderCSV(t *testing.T, results []PanelResult) string {
	t.Helper()
	var sb strings.Builder
	for _, pr := range results {
		if err := WriteCSV(&sb, pr.Points); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

func TestSweepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	panels := []Panel{sweepTestPanel()}
	var outputs []string
	for _, jobs := range []int{1, 4, 8} {
		s := Sweep{Jobs: jobs, Budget: sweepTestBudget()}
		res, err := s.RunPanels(context.Background(), panels)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		outputs = append(outputs, renderCSV(t, res))
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Errorf("results differ across worker counts:\njobs=1:\n%sjobs=4:\n%sjobs=8:\n%s",
			outputs[0], outputs[1], outputs[2])
	}
}

// TestSweepMatchesSequentialRunPanel: a parallel sweep reproduces the
// one-worker, one-replication run of the same panel point for point.
func TestSweepMatchesSequentialRunPanel(t *testing.T) {
	p := sweepTestPanel()
	one, err := Sweep{Jobs: 1, Reps: 1, Budget: sweepTestBudget()}.
		RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	seq := one[0].Points
	res, err := Sweep{Jobs: 8, Budget: sweepTestBudget()}.
		RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	par := res[0].Points
	if len(seq) != len(par) {
		t.Fatalf("point counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("point %d differs: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestSweepReplicationsPoolAndStayDeterministic(t *testing.T) {
	panels := []Panel{{ID: "sweep-rep", K: 4, V: 2, Lm: 8, H: 0.3,
		Lambdas: []float64{0.002}}}
	budget := sweepTestBudget()

	single, err := Sweep{Jobs: 1, Reps: 1, Budget: budget}.RunPanels(context.Background(), panels)
	if err != nil {
		t.Fatal(err)
	}
	var pooled []PanelResult
	for _, jobs := range []int{1, 4} {
		res, err := Sweep{Jobs: jobs, Reps: 3, Budget: budget}.RunPanels(context.Background(), panels)
		if err != nil {
			t.Fatal(err)
		}
		if pooled == nil {
			pooled = res
		} else if renderCSV(t, pooled) != renderCSV(t, res) {
			t.Error("pooled results differ across worker counts")
		}
	}
	pt := pooled[0].Points[0]
	if pt.SimMeasured <= single[0].Points[0].SimMeasured {
		t.Errorf("pooled measured %d not above single-rep %d",
			pt.SimMeasured, single[0].Points[0].SimMeasured)
	}
	if pt.Sim <= 0 || pt.SimCI <= 0 {
		t.Errorf("implausible pooled point %+v", pt)
	}
	// Replications must use distinct seeds: identical seeds would make the
	// pooled mean exactly equal each replication mean, which (given CI > 0)
	// distinct streams make overwhelmingly unlikely to the last bit.
	if stats.ApproxEqual(pt.Sim, single[0].Points[0].Sim, 0, 0) {
		t.Error("pooled mean identical to rep-0 mean; replications likely share a seed")
	}
}

func TestSweepCancellation(t *testing.T) {
	// A budget far beyond what could finish quickly: cancellation must cut
	// it short and surface context.Canceled.
	panels := []Panel{{ID: "sweep-cancel", K: 8, V: 2, Lm: 16, H: 0.3,
		Lambdas: []float64{0.001, 0.0012, 0.0014, 0.0016}}}
	budget := SimBudget{WarmupCycles: 1 << 30, MaxCycles: 1 << 40, MinMeasured: 1 << 40, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Sweep{Jobs: 4, Budget: budget}.RunPanels(ctx, panels)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestSweepJobTimeout(t *testing.T) {
	panels := []Panel{{ID: "sweep-timeout", K: 8, V: 2, Lm: 16, H: 0.3,
		Lambdas: []float64{0.001}}}
	budget := SimBudget{WarmupCycles: 1 << 30, MaxCycles: 1 << 40, MinMeasured: 1 << 40, Seed: 1}
	_, err := Sweep{Jobs: 2, JobTimeout: 50 * time.Millisecond, Budget: budget}.
		RunPanels(context.Background(), panels)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestSweepProgress(t *testing.T) {
	panels := []Panel{sweepTestPanel()}
	const reps = 2
	var events []SweepProgress
	s := Sweep{Jobs: 4, Reps: reps, Budget: sweepTestBudget(),
		Progress: func(ev SweepProgress) { events = append(events, ev) }}
	if _, err := s.RunPanels(context.Background(), panels); err != nil {
		t.Fatal(err)
	}
	total := len(panels[0].Lambdas) * reps
	if len(events) != total {
		t.Fatalf("%d progress events, want %d", len(events), total)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Total != total {
			t.Errorf("event Total = %d, want %d", ev.Total, total)
		}
		if ev.Done < 1 || ev.Done > total || seen[ev.Done] {
			t.Errorf("bad or duplicate Done counter %d", ev.Done)
		}
		seen[ev.Done] = true
		if ev.Result.Measured == 0 {
			t.Error("progress event carries empty result")
		}
	}
}

func TestJobSeedDerivation(t *testing.T) {
	// Deterministic: same inputs, same seed.
	if JobSeed(1, "fig1-h20", 0, 0) != JobSeed(1, "fig1-h20", 0, 0) {
		t.Error("JobSeed not deterministic")
	}
	// Distinct across every identity component: enumerate all (base, panel,
	// point, rep) tuples of a realistic sweep and require injectivity.
	seeds := map[int64]string{}
	for base := int64(1); base <= 2; base++ {
		for _, p := range Figures() {
			for j := range p.Lambdas {
				for r := 0; r < 3; r++ {
					name := fmt.Sprintf("base=%d %s point=%d rep=%d", base, p.ID, j, r)
					s := JobSeed(base, p.ID, j, r)
					if prev, dup := seeds[s]; dup {
						t.Errorf("seed collision: %s and %s both map to %d", prev, name, s)
					}
					seeds[s] = name
				}
			}
		}
	}
}

func TestSweepSaturationDetectionUsesErrorsIs(t *testing.T) {
	// A load far beyond the model's saturation point: the sweep must mark
	// the point saturated (via errors.Is against core.ErrSaturated) rather
	// than fail, and the simulator side must still be measured.
	p := Panel{ID: "sweep-sat", K: 4, V: 2, Lm: 8, H: 0.3,
		Lambdas: []float64{0.05}}
	res, err := Sweep{Jobs: 1, Budget: sweepTestBudget()}.
		RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	pt := res[0].Points[0]
	if !pt.ModelSaturated {
		t.Errorf("model not marked saturated at extreme load: %+v", pt)
	}
	if pt.SimMeasured == 0 {
		t.Errorf("simulation missing at saturated point: %+v", pt)
	}
}

// The Model field must route both the analytical side and the simulator
// configuration: a bidirectional sweep produces different model values AND
// different simulation samples (bidirectional channels halve path lengths)
// than the default, from the same panel and seeds.
func TestSweepModelSelection(t *testing.T) {
	panels := []Panel{sweepTestPanel()}
	def, err := Sweep{Jobs: 2, Budget: sweepTestBudget()}.
		RunPanels(context.Background(), panels)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := Sweep{Jobs: 2, Budget: sweepTestBudget(), Model: "bidirectional-2d"}.
		RunPanels(context.Background(), panels)
	if err != nil {
		t.Fatal(err)
	}
	for i := range def[0].Points {
		d, b := def[0].Points[i], bi[0].Points[i]
		if !d.ModelSaturated && !b.ModelSaturated && stats.ApproxEqual(d.Model, b.Model, 0, 0) {
			t.Errorf("point %d: bidirectional model latency %.4f equals default — Model field ignored", i, d.Model)
		}
		if stats.ApproxEqual(d.Sim, b.Sim, 0, 0) {
			t.Errorf("point %d: bidirectional sim latency %.4f equals default — simulator not reconfigured", i, d.Sim)
		}
	}
}

// An unknown model name fails the sweep with the registry's error instead
// of being misreported as saturation.
func TestSweepUnknownModel(t *testing.T) {
	_, err := Sweep{Budget: sweepTestBudget(), Model: "no-such-model"}.
		RunPanels(context.Background(), []Panel{sweepTestPanel()})
	if err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("want unknown-solver error, got %v", err)
	}
}

// TestPanelSpec: a panel point's spec is the panel's 2-D torus shape at
// the given load, and solving it through the registry is the model side
// of the sweep.
func TestPanelSpec(t *testing.T) {
	p := sweepTestPanel()
	lam := p.Lambdas[0]
	want := core.Spec{K: p.K, Dims: 2, V: p.V, Lm: p.Lm, H: p.H, Lambda: lam}
	if got := p.Spec(lam); got != want {
		t.Fatalf("Spec(%g) = %+v, want %+v", lam, got, want)
	}
	res, err := Sweep{Budget: sweepTestBudget(), Model: "bidirectional-2d"}.
		RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Solve("bidirectional-2d", p.Spec(lam), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Points[0].Model; math.Float64bits(got) != math.Float64bits(direct.Latency) {
		t.Errorf("sweep model %g != core.Solve %g", got, direct.Latency)
	}
}
