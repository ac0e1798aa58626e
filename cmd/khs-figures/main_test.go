package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry/span"
)

func runFigures(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestAccelFlagValidation: bad fixed-point acceleration flags, and the
// retired -accel-window, must be rejected before any simulation starts —
// these runs finish instantly.
func TestAccelFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown scheme", []string{"-accel", "psychic"}, "acceleration"},
		{"retired scheme", []string{"-accel", "aitken"}, "acceleration"},
		{"retired window", []string{"-accel", "anderson", "-accel-window", "5"}, "flag provided but not defined: -accel-window"},
	} {
		_, _, err := runFigures(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (%v): err = %v, want mention of %q", tc.name, tc.args, err, tc.want)
		}
	}
}

func TestRejectsUnknownPanelAndArgs(t *testing.T) {
	if _, _, err := runFigures(t, "-panel", "no-such-panel"); err == nil {
		t.Error("unknown panel accepted")
	}
	if _, _, err := runFigures(t, "stray-arg"); err == nil {
		t.Error("stray positional argument accepted")
	}
}

// TestSpanOutTracesModelSolves: -span-out writes the run as one trace
// rooted at a khs-figures span, with one fixpoint.solve span per load
// point of the panel, identified by panel/lambda_idx/lambda, and no round
// dropped. A 1ms simulation timeout fails the sweep right after the model
// curve is solved; the trace is written on that path too.
func TestSpanOutTracesModelSolves(t *testing.T) {
	path := t.TempDir() + "/spans.jsonl"
	_, _, err := runFigures(t, "-fast", "-panel", "fig1-h20", "-jobs", "1",
		"-timeout", "1ms", "-quiet", "-span-out", path)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want the per-point timeout error, got %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := span.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := experiments.PanelByID("fig1-h20")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Name != "fixpoint.solve" {
			continue
		}
		idx := fmt.Sprint(r.Attrs["lambda_idx"])
		if r.Attrs["panel"] != p.ID || seen[idx] || r.DroppedEvents != 0 ||
			fmt.Sprint(r.Attrs["iterations"]) != fmt.Sprint(len(r.Rounds)) {
			t.Errorf("fixpoint.solve span %s: attrs %v, %d rounds (%d dropped)",
				idx, r.Attrs, len(r.Rounds), r.DroppedEvents)
		}
		seen[idx] = true
	}
	if len(seen) != len(p.Lambdas) {
		t.Errorf("%d fixpoint.solve spans for %d load points", len(seen), len(p.Lambdas))
	}
	if root := recs[len(recs)-1]; root.Name != "khs-figures" || root.ParentID != "" {
		t.Errorf("last record %q (parent %q), want the khs-figures root", root.Name, root.ParentID)
	}
}

// TestAccelFlagSelectsScheme: the model curve of an unflagged run is
// solved exactly as under -accel anderson, and -accel none solves it
// damped, as core.Solve does under AccelNone — every point's rounds and
// residual agree. The 1ms simulation timeout stops each run right after
// its model curve; the fixpoint.solve spans carry the convergence
// summaries.
func TestAccelFlagSelectsScheme(t *testing.T) {
	p, err := experiments.PanelByID("fig1-h20")
	if err != nil {
		t.Fatal(err)
	}
	curve := func(extra ...string) []map[string]any {
		t.Helper()
		path := t.TempDir() + "/spans.jsonl"
		args := append([]string{"-fast", "-panel", p.ID, "-jobs", "1", "-timeout", "1ms", "-quiet", "-span-out", path}, extra...)
		if _, _, err := runFigures(t, args...); err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("%v: want the per-point timeout error, got %v", extra, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := span.ReadRecords(f)
		if err != nil {
			t.Fatal(err)
		}
		attrs := make([]map[string]any, len(p.Lambdas))
		for _, r := range recs {
			if r.Name == "fixpoint.solve" {
				idx, _ := r.Attrs["lambda_idx"].(float64)
				attrs[int(idx)] = r.Attrs
			}
		}
		return attrs
	}
	summary := func(a map[string]any) string {
		return fmt.Sprint(a["iterations"], a["accelerated_rounds"], a["damped_rounds"], a["residual"])
	}
	def, anderson, none := curve(), curve("-accel", "anderson"), curve("-accel", "none")
	for j, lam := range p.Lambdas {
		if def[j] == nil || anderson[j] == nil || none[j] == nil {
			t.Fatalf("point %d: a run left no fixpoint.solve span", j)
		}
		if got, want := summary(def[j]), summary(anderson[j]); got != want {
			t.Errorf("λ=%g: unflagged solve %s, -accel anderson %s", lam, got, want)
		}
		var o core.Options
		o.FixPoint.Acceleration = fixpoint.AccelNone
		r, err := core.Solve(experiments.DefaultModel, p.Spec(lam), o)
		if errors.Is(err, core.ErrSaturated) {
			// A refusal carries no summary to compare; the damped run
			// still takes no accelerated round.
			if fmt.Sprint(none[j]["accelerated_rounds"]) != "0" {
				t.Errorf("λ=%g: -accel none took accelerated rounds: %v", lam, none[j])
			}
			continue
		}
		if err != nil {
			t.Fatalf("λ=%g: damped core.Solve: %v", lam, err)
		}
		c := r.Convergence
		if got, want := summary(none[j]), fmt.Sprint(c.Iterations, 0, c.DampedRounds, c.Residual); got != want {
			t.Errorf("λ=%g: -accel none solve %s, damped core.Solve %s", lam, got, want)
		}
	}
}
