package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"bytes"
	"kncube/internal/telemetry"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
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
convergence       37 iterations, residual 6.67e-10
detail            Vx=1.004 Vhy=1.006, mean path 4.00 hops
`
	if out != want {
		t.Fatalf("-model bidirectional-2d output changed:\n%s\nwant:\n%s", out, want)
	}
	if code := exitCode(errors.New("solve failed")); code != 1 {
		t.Errorf("non-usage error exit status %d, want 1", code)
	}
}

// TestAccelFlagBitIdentity: -accel none selects the damped baseline, whose
// arithmetic is exactly the historical iteration — output must be
// bit-identical to not passing the flag at all.
func TestAccelFlagBitIdentity(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.2", "-sweep", "4e-4", "-points", "6"}
	base, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	none, _, err := runCLI(t, append([]string{"-accel", "none"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if none != base {
		t.Fatalf("-accel none output differs from the unflagged run:\n%s\nvs\n%s", none, base)
	}
}

// TestAccelFlagReachesSameFixedPoint: the accelerated schemes must agree
// with the damped baseline on every converged sweep point — same fixed
// point, possibly different iteration counts.
func TestAccelFlagReachesSameFixedPoint(t *testing.T) {
	args := []string{"-k", "8", "-lm", "16", "-h", "0.2", "-sweep", "4e-4", "-points", "6"}
	base, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, accel := range [][]string{
		{"-accel", "anderson", "-accel-window", "4"},
		{"-accel", "aitken"},
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

func TestAccelFlagValidation(t *testing.T) {
	point := []string{"-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4"}
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"unknown scheme", []string{"-accel", "psychic"}},
		{"negative window", []string{"-accel", "anderson", "-accel-window", "-1"}},
		{"window without anderson", []string{"-accel-window", "3"}},
	} {
		if _, _, err := runCLI(t, append(tc.extra, point...)...); err == nil {
			t.Errorf("%s (%v) accepted", tc.name, tc.extra)
		}
	}
}

func TestUnknownModel(t *testing.T) {
	_, _, err := runCLI(t, "-model", "no-such-model", "-lambda", "1e-4")
	if err == nil || !strings.Contains(err.Error(), "unknown solver") {
		t.Fatalf("want unknown-solver error, got %v", err)
	}
}

// TestTraceOutWritesConvergenceTraces drives every mode with -trace-out and
// checks one JSONL trace per solve appears, with iteration counts matching
// the CSV the sweep mode prints.
func TestTraceOutWritesConvergenceTraces(t *testing.T) {
	dir := t.TempDir()
	out, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1",
		"-sweep", "2e-4", "-points", "3", "-trace-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := telemetry.NewDirTraceSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")[1:]
	if len(lines) != 3 {
		t.Fatalf("want 3 sweep lines, got %d", len(lines))
	}
	for i, ln := range lines {
		recs, err := telemetry.ReadConvergenceTrace(
			sink.Path(fmt.Sprintf("sweep-hotspot-2d-lam%02d", i+1)))
		if err != nil {
			t.Fatalf("trace for point %d: %v", i+1, err)
		}
		if len(recs) == 0 {
			t.Fatalf("empty trace for point %d", i+1)
		}
		fields := strings.Split(ln, ",")
		iters, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("bad iterations field in %q: %v", ln, err)
		}
		if last := recs[len(recs)-1]; last.Iteration != iters {
			t.Errorf("point %d: trace ends at iteration %d, CSV says %d",
				i+1, last.Iteration, iters)
		}
	}
}

// TestTraceOutSingleAndSaturation covers the point and bisection modes.
func TestTraceOutSingleAndSaturation(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1", "-lambda", "1e-4",
		"-trace-out", dir); err != nil {
		t.Fatal(err)
	}
	sink, err := telemetry.NewDirTraceSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sink.Path("point-hotspot-2d")); err != nil {
		t.Errorf("point-mode trace missing: %v", err)
	}

	satDir := t.TempDir()
	if _, _, err := runCLI(t,
		"-k", "8", "-lm", "16", "-h", "0.1", "-saturation",
		"-trace-out", satDir); err != nil {
		t.Fatal(err)
	}
	probes, err := os.ReadDir(satDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) < 2 {
		t.Errorf("bisection wrote %d probe traces, want several", len(probes))
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
