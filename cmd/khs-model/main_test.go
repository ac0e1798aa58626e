package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// The -model flag must compose with -sweep for every registered 2-D-capable
// variant: the historical bug evaluated hotspot-2d regardless of the
// selected model in the sweep and saturation paths.
func TestSweepComposesWithModel(t *testing.T) {
	for _, model := range []string{"hotspot-2d", "bidirectional-2d", "uniform", "ndim"} {
		t.Run(model, func(t *testing.T) {
			out, _, err := runCLI(t,
				"-model", model, "-k", "8", "-lm", "16", "-h", "0.1",
				"-sweep", "2e-4", "-points", "3")
			if model == "uniform" {
				// The baseline rejects H > 0; with -h explicitly set the
				// factory's error must surface, not silently solve hotspot.
				if err == nil {
					t.Fatalf("uniform with -h 0.1 should fail, got output:\n%s", out)
				}
				out, _, err = runCLI(t,
					"-model", model, "-k", "8", "-lm", "16",
					"-sweep", "2e-4", "-points", "3")
			}
			if err != nil {
				t.Fatalf("sweep with -model %s: %v", model, err)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) != 4 {
				t.Fatalf("want header + 3 sweep lines, got %d:\n%s", len(lines), out)
			}
			if lines[0] != "lambda,latency,regular,hot,ws,vbar,iterations" {
				t.Fatalf("unexpected header %q", lines[0])
			}
			for _, ln := range lines[1:] {
				if strings.Contains(ln, "saturated") {
					t.Fatalf("light load saturated unexpectedly: %q", ln)
				}
			}
		})
	}
}

// Different models must actually produce different sweep numbers — guards
// against the selection being ignored.
func TestSweepModelSelectionMatters(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.1", "-sweep", "2e-4", "-points", "3"}
	hot, _, err := runCLI(t, append([]string{"-model", "hotspot-2d"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	bi, _, err := runCLI(t, append([]string{"-model", "bidirectional-2d"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if hot == bi {
		t.Fatalf("hotspot-2d and bidirectional-2d sweeps identical — model flag ignored:\n%s", hot)
	}
}

func TestSaturationComposesWithModel(t *testing.T) {
	rates := map[string]float64{}
	for _, model := range []string{"hotspot-2d", "bidirectional-2d"} {
		out, _, err := runCLI(t,
			"-model", model, "-k", "8", "-lm", "16", "-h", "0.2", "-saturation")
		if err != nil {
			t.Fatalf("saturation with -model %s: %v", model, err)
		}
		if !strings.HasPrefix(out, model+" saturation rate:") {
			t.Fatalf("unexpected output %q", out)
		}
		fields := strings.Fields(strings.TrimSpace(out))
		rate, err := strconv.ParseFloat(fields[len(fields)-2], 64)
		if err != nil || rate <= 0 {
			t.Fatalf("bad rate in %q: %v", out, err)
		}
		rates[model] = rate
	}
	// Bidirectional channels halve path lengths, so the bidirectional model
	// must saturate strictly later than the unidirectional one.
	if rates["bidirectional-2d"] <= rates["hotspot-2d"] {
		t.Fatalf("bidirectional saturation %g should exceed unidirectional %g",
			rates["bidirectional-2d"], rates["hotspot-2d"])
	}
}

// TestDeprecatedAliases: the deprecated pre-registry -bidirectional and
// -uniform aliases are removed — each is now an unknown flag, a usage
// error (exit status 2) — and -model bidirectional-2d prints exactly what
// the alias used to.
func TestDeprecatedAliases(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4"}
	for _, alias := range []string{"-bidirectional", "-uniform"} {
		_, stderr, err := runCLI(t, append([]string{alias}, args...)...)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: want an unknown-flag error, got %v", alias, err)
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%s: exit status %d, want 2", alias, code)
		}
		if !strings.Contains(stderr, "Usage of khs-model") {
			t.Errorf("%s: no usage on stderr: %q", alias, stderr)
		}
	}
	out, _, err := runCLI(t, append([]string{"-model", "bidirectional-2d"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	const want = `model             bidirectional-2d
mean latency           20.16 cycles
  regular              20.15 cycles
  hot-spot             20.24 cycles
source waiting          0.01 cycles
multiplexing      V̄=1.004
max utilisation   0.007
convergence       3 iterations, residual 1.57e-12
`
	if out != want {
		t.Fatalf("-model bidirectional-2d output changed:\n%s\nwant:\n%s", out, want)
	}
	if code := exitCode(errors.New("solve failed")); code != 1 {
		t.Errorf("non-usage error exit status %d, want 1", code)
	}
}

// TestAccelFlagBitIdentity: an unset -accel is -accel anderson, output for
// output, and -accel none selects the damped baseline, whose arithmetic is
// exactly the historical iteration: its sweep, round counts included, is
// what the unflagged run printed while damped substitution was the
// default.
func TestAccelFlagBitIdentity(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.2", "-sweep", "4e-4", "-points", "6"}
	base, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	anderson, _, err := runCLI(t, append([]string{"-accel", "anderson"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if anderson != base {
		t.Fatalf("-accel anderson output differs from the unflagged run:\n%s\nvs\n%s", anderson, base)
	}
	none, _, err := runCLI(t, append([]string{"-accel", "none"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	const damped = `lambda,latency,regular,hot,ws,vbar,iterations
6.66667e-05,23.41,23.37,23.57,0.01,1.010,16
0.000133333,23.70,23.62,24.02,0.02,1.020,19
0.0002,23.99,23.87,24.46,0.03,1.030,21
0.000266667,24.27,24.12,24.90,0.04,1.039,22
0.000333333,24.56,24.36,25.32,0.04,1.049,23
0.0004,24.84,24.61,25.75,0.05,1.058,24
`
	if none != damped {
		t.Fatalf("-accel none output differs from the damped default:\n%s\nvs\n%s", none, damped)
	}
}

// TestAccelFlagReachesSameFixedPoint: Anderson must agree with the damped
// baseline on every converged sweep point — same fixed
// point, possibly different iteration counts.
func TestAccelFlagReachesSameFixedPoint(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.2", "-sweep", "4e-4", "-points", "6"}
	base, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, accel := range [][]string{
		{"-accel", "none"},
	} {
		out, _, err := runCLI(t, append(accel, args...)...)
		if err != nil {
			t.Fatalf("%v: %v", accel, err)
		}
		baseLines := strings.Split(strings.TrimSpace(base), "\n")
		accLines := strings.Split(strings.TrimSpace(out), "\n")
		if len(accLines) != len(baseLines) {
			t.Fatalf("%v: %d sweep lines vs %d in the baseline", accel, len(accLines), len(baseLines))
		}
		for i := range baseLines[1:] {
			bf := strings.Split(baseLines[i+1], ",")
			af := strings.Split(accLines[i+1], ",")
			if bf[1] == "saturated" || af[1] == "saturated" {
				if bf[1] != af[1] {
					t.Errorf("%v: line %d saturation disagrees: %q vs %q", accel, i+1, accLines[i+1], baseLines[i+1])
				}
				continue
			}
			bl, err1 := strconv.ParseFloat(bf[1], 64)
			al, err2 := strconv.ParseFloat(af[1], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v: bad latency fields %q / %q", accel, bf[1], af[1])
			}
			if diff := al - bl; diff < -0.05 || diff > 0.05 {
				t.Errorf("%v: latency %v differs from baseline %v at lambda %s — not the same fixed point",
					accel, al, bl, bf[0])
			}
		}
	}
}

// TestAccelFlagValidation: a bad -accel scheme is refused, and the retired
// -accel-window is an unknown flag, a usage error.
func TestAccelFlagValidation(t *testing.T) {
	point := []string{"-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4"}
	for _, tc := range []struct {
		name  string
		extra []string
		usage bool
	}{
		{"unknown scheme", []string{"-accel", "psychic"}, false},
		{"retired scheme", []string{"-accel", "aitken"}, false},
		{"retired window", []string{"-accel", "anderson", "-accel-window", "5"}, true},
	} {
		_, _, err := runCLI(t, append(tc.extra, point...)...)
		if err == nil {
			t.Errorf("%s (%v) accepted", tc.name, tc.extra)
			continue
		}
		var ue usageError
		if errors.As(err, &ue) != tc.usage {
			t.Errorf("%s (%v): err = %v, usage error %v, want %v", tc.name, tc.extra, err, !tc.usage, tc.usage)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	_, _, err := runCLI(t, "-model", "no-such-model", "-lambda", "1e-4")
	if err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("want unknown-solver error, got %v", err)
	}
}

// readSpans runs khs-model with -span-out over an existing file, checks the
// export is one trace under a single khs-model root, and returns stdout and
// the fixpoint.solve spans in solve order.
func readSpans(t *testing.T, args ...string) (out string, solves []span.Record) {
	t.Helper()
	// The file starts with a stale line: -span-out truncates, so it must
	// not survive into the export.
	path := t.TempDir() + "/spans.jsonl"
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, append(args, "-span-out", path)...)
	if err != nil {
		t.Fatal(err)
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
	var root span.Record
	roots := 0
	for _, r := range recs {
		switch {
		case r.ParentID == "":
			roots++
			root = r
		case r.Name == "fixpoint.solve":
			solves = append(solves, r)
		}
		if r.TraceID != recs[0].TraceID {
			t.Fatalf("span %s in trace %s, want the run's one trace %s", r.Name, r.TraceID, recs[0].TraceID)
		}
	}
	if roots != 1 || root.Name != "khs-model" {
		t.Fatalf("want one khs-model root span, got %d roots (last %q)", roots, root.Name)
	}
	return out, solves
}

// rounds returns a span's round events, failing on any dropped one (an
// event of another kind already failed span.ReadRecords).
func rounds(t *testing.T, r span.Record) []span.Round {
	t.Helper()
	if r.DroppedEvents != 0 {
		t.Fatalf("%s dropped %d round events", r.Name, r.DroppedEvents)
	}
	return r.Rounds
}

// TestSpanOutSweep: -span-out on a sweep writes one fixpoint.solve span per
// load point, whose round events and iterations attribute both agree with
// the iteration count the sweep prints.
func TestSpanOutSweep(t *testing.T) {
	out, solves := readSpans(t,
		"-k", "8", "-lm", "16", "-h", "0.1", "-sweep", "2e-4", "-points", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
	if len(lines) != 3 || len(solves) != 3 {
		t.Fatalf("want 3 sweep lines and 3 fixpoint.solve spans, got %d and %d", len(lines), len(solves))
	}
	for i, ln := range lines {
		fields := strings.Split(ln, ",")
		iters, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("bad iterations field in %q: %v", ln, err)
		}
		evs := rounds(t, solves[i])
		if len(evs) != iters {
			t.Errorf("point %d: %d round events, sweep prints %d iterations", i+1, len(evs), iters)
		}
		if got := fmt.Sprint(solves[i].Attrs["iterations"]); got != strconv.Itoa(iters) {
			t.Errorf("point %d: iterations attr %s, sweep prints %d", i+1, got, iters)
		}
		lam, _ := strconv.ParseFloat(fields[0], 64)
		if got, ok := solves[i].Attrs["lambda"].(float64); !ok || math.Abs(got-lam) > 1e-5*lam {
			t.Errorf("point %d: lambda attr %v, sweep line %s", i+1, solves[i].Attrs["lambda"], fields[0])
		}
	}
}

// TestSpanOutPointAndSaturation: a single point writes one fixpoint.solve
// span; bisection writes one per probe, saturated probes included.
func TestSpanOutPointAndSaturation(t *testing.T) {
	out, solves := readSpans(t, "-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4")
	if len(solves) != 1 {
		t.Fatalf("point mode wrote %d fixpoint.solve spans, want 1", len(solves))
	}
	if want := fmt.Sprintf("convergence       %d iterations", len(rounds(t, solves[0]))); !strings.Contains(out, want) {
		t.Errorf("point output lacks %q:\n%s", want, out)
	}

	_, probes := readSpans(t, "-k", "8", "-lm", "16", "-h", "0.1", "-saturation")
	if len(probes) < 2 {
		t.Fatalf("bisection wrote %d probe spans, want several", len(probes))
	}
	for i, p := range probes {
		if n := len(rounds(t, p)); fmt.Sprint(p.Attrs["iterations"]) != strconv.Itoa(n) {
			t.Errorf("probe %d: iterations attr %v, %d round events", i, p.Attrs["iterations"], n)
		}
	}
}

// TestRemovedFlags: -trace-out (superseded by -span-out), -log-format
// (khs-model never logged), and the retired ablation switches
// -worst-case-entrance and -paper-blocking (results/ablations.csv freezes
// their curves) are unknown flags, a usage error.
func TestRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trace-out", t.TempDir()},
		{"-log-format", "json"},
		{"-worst-case-entrance"},
		{"-paper-blocking"},
	} {
		_, _, err := runCLI(t, append(args, "-lambda", "1e-4")...)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%s: want an unknown-flag error, got %v", args[0], err)
		}
		if code := exitCode(err); code != 2 {
			t.Errorf("%s: exit status %d, want 2", args[0], code)
		}
	}
}

// TestMetricsOutFormats checks -metrics-out writes the solve counters in
// both exposition formats, chosen by extension.
func TestMetricsOutFormats(t *testing.T) {
	dir := t.TempDir()
	prom := dir + "/m.prom"
	if _, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1",
		"-sweep", "2e-4", "-points", "3", "-metrics-out", prom); err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`khs_model_solves_total{model="hotspot-2d",outcome="ok"} 3`,
		"khs_model_solve_iterations_count 3",
		"khs_model_solve_residual ",
	} {
		if !strings.Contains(string(pb), want) {
			t.Errorf("Prometheus metrics missing %q:\n%s", want, pb)
		}
	}

	jsonPath := dir + "/m.json"
	if _, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4",
		"-metrics-out", jsonPath); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(jb, &snap); err != nil {
		t.Fatalf("-metrics-out .json is not a JSON snapshot: %v", err)
	}
}

// TestProfileFlagsWriteFiles checks -cpuprofile/-memprofile produce
// non-empty pprof files.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	if _, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1", "-sweep", "2e-4", "-points", "5",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
