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
// every row's lambda, model and model_saturated fields. So must the rows
// of results/ablations.csv (EXPERIMENTS.md, "Ablations") for the two
// blocking forms the solver still implements; the file's other forms were
// deleted after it was frozen. A change that moves a published cell, or a
// kept form next to the frozen evidence, shows up here in about a second.
func TestModelColumnsMatchPublishedCSV(t *testing.T) {
	type table struct {
		name string
		p    Panel
		o    core.Options
		rows []string // lambda,model,model_saturated
	}
	var tables []table
	for _, p := range Figures() {
		rows := readCSV(t, p.ID+".csv", "lambda,model,model_saturated,sim,sim_ci95,sim_saturated,sim_measured")
		for i := range rows {
			rows[i] = strings.Join(strings.Split(rows[i], ",")[:3], ",")
		}
		tables = append(tables, table{p.ID, p, core.Options{}, rows})
	}
	ablations := map[string][]string{} // "panel/form" → rows
	for _, row := range readCSV(t, "ablations.csv", "panel,form,lambda,model,model_saturated") {
		f := strings.SplitN(row, ",", 3)
		ablations[f[0]+"/"+f[1]] = append(ablations[f[0]+"/"+f[1]], f[2])
	}
	for _, p := range Figures() {
		tables = append(tables,
			table{p.ID + "/vc-occupancy", p, core.Options{}, ablations[p.ID+"/vc-occupancy"]},
			table{p.ID + "/multi-server", p, core.Options{Blocking: core.BlockingMultiServer}, ablations[p.ID+"/multi-server"]})
	}

	for _, tb := range tables {
		points, err := ModelCurve(DefaultModel, tb.p, tb.o)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.rows) != len(points) {
			t.Fatalf("%s: %d published rows, %d load points", tb.name, len(tb.rows), len(points))
		}
		var sb strings.Builder
		if err := WriteCSV(&sb, points); err != nil {
			t.Fatal(err)
		}
		for i, got := range strings.Split(strings.TrimSpace(sb.String()), "\n")[1:] {
			if g := strings.Join(strings.Split(got, ",")[:3], ","); g != tb.rows[i] {
				t.Errorf("%s row %d: model %s, published %s", tb.name, i+1, g, tb.rows[i])
			}
		}
	}
}

// readCSV returns the data rows of the committed results/<name>, after
// checking its header; it skips the test when the file is not available.
func readCSV(t *testing.T, name, header string) []string {
	t.Helper()
	raw, err := os.ReadFile("../../results/" + name)
	if err != nil {
		t.Skipf("published CSV not available: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != header {
		t.Fatalf("%s header %q, want %q", name, lines[0], header)
	}
	return lines[1:]
}
