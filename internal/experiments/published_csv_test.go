package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"kncube/internal/core"
)

// TestSweepReproducesPublishedCSV regenerates the fig1-h20 reference table
// through the full sweep engine — prepared analytical solves, derived
// simulation seeds, CSV rendering — and requires the output to match the
// committed results/fig1-h20.csv byte for byte. This is the end-to-end
// reproducibility contract: any change to solver arithmetic, seed
// derivation, or formatting shows up here.
func TestSweepReproducesPublishedCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget sweep of fig1-h20 (~10 s): skipped with -short")
	}
	want, err := os.ReadFile("../../results/fig1-h20.csv")
	if err != nil {
		t.Skipf("published CSV not available: %v", err)
	}
	p, err := PanelByID("fig1-h20")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep{Budget: DefaultSimBudget()}.RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, res[0].Points); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("regenerated fig1-h20.csv differs from the published file:\ngot:\n%s\nwant:\n%s",
			sb.String(), want)
	}
}

// TestModelColumnsMatchPublishedCSV checks the model columns of every
// committed results/*.csv, without the simulator: each panel's
// default-option model curve, rendered as WriteCSV renders it, must give
// every row's model and model_saturated fields. A change to the default
// solver that moves a published cell shows up here in about a second.
func TestModelColumnsMatchPublishedCSV(t *testing.T) {
	for _, p := range Figures() {
		raw, err := os.ReadFile("../../results/" + p.ID + ".csv")
		if err != nil {
			t.Skipf("published CSV not available: %v", err)
		}
		rows := strings.Split(strings.TrimSpace(string(raw)), "\n")[1:]
		points, err := ModelCurve(DefaultModel, p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(points) {
			t.Fatalf("%s: %d published rows, %d load points", p.ID, len(rows), len(points))
		}
		var sb strings.Builder
		if err := WriteCSV(&sb, points); err != nil {
			t.Fatal(err)
		}
		for i, got := range strings.Split(strings.TrimSpace(sb.String()), "\n")[1:] {
			g, w := strings.Split(got, ","), strings.Split(rows[i], ",")
			if g[0] != w[0] || g[1] != w[1] || g[2] != w[2] {
				t.Errorf("%s row %d: model %s, published %s", p.ID, i+1,
					strings.Join(g[:3], ","), strings.Join(w[:3], ","))
			}
		}
	}
}
