package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"kncube/internal/core"
	"kncube/internal/stats"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

// TestSweepManifestRoundTrip runs a real sweep with a manifest writer and
// checks the JSONL records identify every job and agree with the sweep's
// own results.
func TestSweepManifestRoundTrip(t *testing.T) {
	p := sweepTestPanel()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	s := Sweep{
		Jobs: 4, Reps: 2, Budget: sweepTestBudget(),
		Manifest: telemetry.NewManifestWriter(&buf),
		Metrics:  reg,
	}
	res, err := s.RunPanels(context.Background(), []Panel{p})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJSONL[RunManifest](&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := len(p.Lambdas) * 2
	if len(recs) != wantJobs {
		t.Fatalf("got %d manifest records, want %d", len(recs), wantJobs)
	}
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Panel != p.ID || r.Model != DefaultModel {
			t.Errorf("record identity %+v", r)
		}
		if r.Seed != JobSeed(s.Budget.Seed, p.ID, r.LambdaIdx, r.Rep) {
			t.Errorf("record seed %d does not match JobSeed for (%d, %d)",
				r.Seed, r.LambdaIdx, r.Rep)
		}
		if r.Outcome != "ok" && r.Outcome != "saturated" {
			t.Errorf("outcome %q for lambda_idx=%d rep=%d", r.Outcome, r.LambdaIdx, r.Rep)
		}
		if r.WallSeconds <= 0 || r.Cycles <= 0 {
			t.Errorf("degenerate timing in %+v", r)
		}
		key := fmt.Sprintf("%d/%d", r.LambdaIdx, r.Rep)
		if seen[key] {
			t.Errorf("duplicate record %s", key)
		}
		seen[key] = true
		if r.Rep == 0 {
			if r.ModelOutcome != "ok" {
				t.Errorf("model outcome %q at lambda_idx %d", r.ModelOutcome, r.LambdaIdx)
			}
			if r.ModelIterations <= 0 {
				t.Errorf("model iterations %d at lambda_idx %d", r.ModelIterations, r.LambdaIdx)
			}
			if !stats.ApproxEqual(r.ModelLatency, res[0].Points[r.LambdaIdx].Model, 1e-9, 1e-12) {
				t.Errorf("manifest model latency %v != sweep point %v",
					r.ModelLatency, res[0].Points[r.LambdaIdx].Model)
			}
		} else if r.ModelOutcome != "" {
			t.Errorf("rep %d carries model fields: %+v", r.Rep, r)
		}
	}
	// Sweep metrics agree with the manifest.
	var okCount int64
	for _, r := range recs {
		if r.Outcome == "ok" {
			okCount++
		}
	}
	if got := reg.Counter("khs_sweep_jobs_total", "", telemetry.Labels{"outcome": "ok"}).Value(); got != okCount {
		t.Errorf("jobs counter = %d, manifest ok records = %d", got, okCount)
	}
	if got := reg.Histogram("khs_sweep_job_seconds", "", nil, nil).Count(); got != int64(len(recs)) {
		t.Errorf("job-seconds histogram count = %d, manifest records = %d", got, len(recs))
	}
}

// TestSweepManifestCarriesSpanIDs runs a sweep under a request span (the
// khs-serve job path) and checks the correlation contract both ways: every
// manifest record names the trace and the exact sweep.sim span that
// produced it, and every sweep.sim span in the exported trace is named by
// exactly one record. A sweep without an upstream span writes no ids.
func TestSweepManifestCarriesSpanIDs(t *testing.T) {
	p := sweepTestPanel()
	ring := span.NewRingExporter(4, nil)
	tr := span.New(span.Config{Exporter: ring, Seed: 7})
	ctx, root := tr.Start(context.Background(), "test.sweep")

	var buf bytes.Buffer
	s := Sweep{Jobs: 2, Reps: 2, Budget: sweepTestBudget(),
		Manifest: telemetry.NewManifestWriter(&buf)}
	if _, err := s.RunPanels(ctx, []Panel{p}); err != nil {
		t.Fatal(err)
	}
	root.End()

	recs, err := telemetry.ReadJSONL[RunManifest](&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := ring.Trace(root.TraceID())
	if spans == nil {
		t.Fatal("sweep trace was not exported")
	}
	simSpans := map[string]span.Record{}
	for _, r := range spans {
		if r.Name == "sweep.sim" {
			simSpans[r.SpanID] = r
		}
	}
	if len(simSpans) != len(recs) {
		t.Fatalf("%d sweep.sim spans for %d manifest records", len(simSpans), len(recs))
	}
	for _, r := range recs {
		if r.TraceID != root.TraceID().String() {
			t.Errorf("record (%d,%d) trace id %q, want %s", r.LambdaIdx, r.Rep, r.TraceID, root.TraceID())
		}
		sp, ok := simSpans[r.SpanID]
		if !ok {
			t.Errorf("record (%d,%d) names span %q, absent from the trace", r.LambdaIdx, r.Rep, r.SpanID)
			continue
		}
		if got := fmt.Sprint(sp.Attrs["lambda_idx"]); got != fmt.Sprint(r.LambdaIdx) {
			t.Errorf("span %s lambda_idx = %s, record says %d", r.SpanID, got, r.LambdaIdx)
		}
		if got := fmt.Sprint(sp.Attrs["rep"]); got != fmt.Sprint(r.Rep) {
			t.Errorf("span %s rep = %s, record says %d", r.SpanID, got, r.Rep)
		}
		if got := fmt.Sprint(sp.Attrs["seed"]); got != fmt.Sprint(r.Seed) {
			t.Errorf("span %s seed = %s, record says %d", r.SpanID, got, r.Seed)
		}
		if got := fmt.Sprint(sp.Attrs["outcome"]); got != r.Outcome {
			t.Errorf("span %s outcome = %s, record says %q", r.SpanID, got, r.Outcome)
		}
	}

	// The ids are span-scoped, not unconditional: a plain CLI sweep (no
	// span in ctx) must not invent them.
	var plain bytes.Buffer
	s2 := Sweep{Jobs: 1, Budget: sweepTestBudget(),
		Manifest: telemetry.NewManifestWriter(&plain)}
	p2 := p
	p2.Lambdas = p2.Lambdas[:1]
	if _, err := s2.RunPanels(context.Background(), []Panel{p2}); err != nil {
		t.Fatal(err)
	}
	plainRecs, err := telemetry.ReadJSONL[RunManifest](&plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plainRecs {
		if r.TraceID != "" || r.SpanID != "" {
			t.Errorf("untraced sweep wrote span ids: %+v", r)
		}
	}
}

// tracedSweep runs s over p under a tracer whose spans keep every round
// (the CLI -span-out configuration) and returns the manifest records and
// the panel's fixpoint.solve spans keyed by lambda_idx.
func tracedSweep(t *testing.T, s Sweep, p Panel) ([]RunManifest, map[int]span.Record) {
	t.Helper()
	ring := span.NewRingExporter(1, nil)
	tr := span.New(span.Config{Exporter: ring, Seed: 7,
		MaxEventsPerSpan: core.RoundBudget(s.Opts)})
	ctx, root := tr.Start(context.Background(), "test.sweep")
	var buf bytes.Buffer
	s.Manifest = telemetry.NewManifestWriter(&buf)
	if _, err := s.RunPanels(ctx, []Panel{p}); err != nil {
		t.Fatal(err)
	}
	root.End()
	recs, err := telemetry.ReadJSONL[RunManifest](&buf)
	if err != nil {
		t.Fatal(err)
	}
	solves := map[int]span.Record{}
	for _, r := range ring.Trace(root.TraceID()) {
		if r.Name != "fixpoint.solve" {
			continue
		}
		idx, ok := r.Attrs["lambda_idx"].(int64)
		if !ok || r.Attrs["panel"] != p.ID {
			t.Fatalf("fixpoint.solve span lacks its point identity: %v", r.Attrs)
		}
		if r.DroppedEvents != 0 {
			t.Fatalf("lambda_idx %d: %d round events dropped", idx, r.DroppedEvents)
		}
		solves[int(idx)] = r
	}
	if len(solves) != len(p.Lambdas) {
		t.Fatalf("%d fixpoint.solve spans for %d load points", len(solves), len(p.Lambdas))
	}
	return recs, solves
}

// TestSweepRoundEventsMatchConvergence runs a traced sweep, one point past
// saturation, and checks each point's fixpoint.solve span against the
// manifest and the solver: the last round event's iteration is the
// manifest's model_iterations (saturated points included) and, on
// converged points, core.Solve's Convergence.Iterations, with the same
// residual.
func TestSweepRoundEventsMatchConvergence(t *testing.T) {
	p := sweepTestPanel()
	// Past saturation: the iteration converges, then the source queue saturates.
	p.Lambdas = append(p.Lambdas, 0.0234)
	recs, solves := tracedSweep(t, Sweep{Jobs: 2, Budget: sweepTestBudget()}, p)
	saturated := 0
	for _, r := range recs {
		if r.Rep != 0 {
			continue
		}
		sp := solves[r.LambdaIdx]
		if len(sp.Rounds) == 0 {
			t.Fatalf("lambda_idx %d: no round events", r.LambdaIdx)
		}
		last := sp.Rounds[len(sp.Rounds)-1]
		iter := last.Iteration
		if int(iter) != r.ModelIterations || r.ModelIterations == 0 {
			t.Errorf("lambda_idx %d: last round %d, manifest model_iterations %d",
				r.LambdaIdx, iter, r.ModelIterations)
		}
		if got := sp.Attrs["iterations"]; got != iter {
			t.Errorf("lambda_idx %d: iterations attr %v, last round %d", r.LambdaIdx, got, iter)
		}
		if lam, _ := sp.Attrs["lambda"].(float64); !stats.ApproxEqual(lam, p.Lambdas[r.LambdaIdx], 1e-12, 0) {
			t.Errorf("lambda_idx %d: lambda attr %v", r.LambdaIdx, sp.Attrs["lambda"])
		}
		if r.ModelOutcome == "saturated" {
			saturated++
			continue
		}
		res, err := core.Solve(DefaultModel, p.Spec(p.Lambdas[r.LambdaIdx]), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if int(iter) != res.Convergence.Iterations {
			t.Errorf("lambda_idx %d: last round %d != Convergence.Iterations %d",
				r.LambdaIdx, iter, res.Convergence.Iterations)
		}
		resid := last.MaxRelDelta
		spanResid, _ := sp.Attrs["residual"].(float64)
		if !stats.ApproxEqual(resid, res.Convergence.Residual, 1e-12, 0) ||
			!stats.ApproxEqual(spanResid, resid, 1e-12, 0) {
			t.Errorf("lambda_idx %d: last round residual %v, span residual %v, Convergence.Residual %v",
				r.LambdaIdx, resid, sp.Attrs["residual"], res.Convergence.Residual)
		}
	}
	if saturated != 1 {
		t.Errorf("%d saturated model points, want 1", saturated)
	}
}
