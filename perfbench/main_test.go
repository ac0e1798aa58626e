package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"kncube/internal/experiments"
)

func TestTailRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		{n: 1000, value: 990, pct: 99},
		{n: 5000, value: 4950, pct: 99}, // capped at p99: 50 samples beyond
		{n: 11, value: 1, pct: 100.0 / 11},
		{n: 250, value: 240, pct: 96},
		{n: 10, value: 10, pct: 100}, // too few samples: the maximum
		{n: 1, value: 1, pct: 100},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed, so tailOf must sort
		}
		got := tailOf(xs)
		if got.Value != tc.value || got.N != tc.n || abs(got.Percentile-tc.pct) > 1e-9 {
			t.Errorf("n=%d: got %+v, want value %v at p%v", tc.n, got, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if want := max(tailSamples, tc.n/100); tc.n > tailSamples && beyond != want {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, want)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("no samples: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: got %v", got)
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, gen := range []struct {
		name string
		f    func(int64) []serveOp
	}{{"serve-batch", genBatch}} {
		a, b, c := digestOps(gen.f(7)), digestOps(gen.f(7)), digestOps(gen.f(8))
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", gen.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", gen.name)
		}
	}

	ref, _, err := buildReference(nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := genSurface(7, ref)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := genSurface(7, ref)
	if digestOps(s1) != digestOps(s2) || *s1[0].want != *s2[0].want {
		t.Error("serve-surface: one seed gave two input sets")
	}

	// The figures workload always regenerates the committed panels.
	_, b1, j1, _ := figureInputs()
	_, _, j2, _ := figureInputs()
	if digestJobs(j1) != digestJobs(j2) || b1 != experiments.DefaultSimBudget() {
		t.Error("figures: the inputs are not those of the committed files")
	}
}

func TestBatchItemsAreDistinctAndCycleVariants(t *testing.T) {
	ops := genBatch(3)
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.model]++
		seen := map[float64]bool{}
		for _, s := range op.specs {
			if seen[s.Lambda] {
				t.Fatalf("batch on %s repeats λ %v", op.model, s.Lambda)
			}
			seen[s.Lambda] = true
		}
		if len(op.specs) != batchItems {
			t.Fatalf("batch of %d items, want %d", len(op.specs), batchItems)
		}
	}
	for _, v := range batchVariants {
		if counts[v] != len(ops)/len(batchVariants) {
			t.Errorf("variant %s has %d batches of %d", v, counts[v], len(ops))
		}
	}
}

var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesFollowTheCharset(t *testing.T) {
	seen := map[string]bool{}
	names := []string{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		names = append(names, m.Name)
		if !unitName.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the charset", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for w := range workloads {
		names = append(names, w)
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q outside the charset", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", ".lead", "a b", strings.Repeat("x", 65), "p99(ms)"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesTheMetricTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range f.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if boundOf("setup_s") != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", boundOf("setup_s"), maxBound)
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, want)
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", names, len(workloads))
	}
}

// Each per-layer metric names the end-to-end metric it should move and
// the workload it moves it on, so a later change can cite the pairing.
func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	moves := map[string]bool{"failed_ratio": true, "none": true}
	for _, m := range endToEnd {
		moves[m.Name] = true
	}
	for _, m := range perLayer {
		if !moves[m.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", m.Name, m.Moves)
		}
		if _, ok := workloads[m.Workload]; !ok {
			t.Errorf("%s moves %s on %q, not a workload", m.Name, m.Moves, m.Workload)
		}
	}
}

func TestCoveredCountsOverlappingChildrenOnce(t *testing.T) {
	parent := spanRecord{Start: 0, Duration: 100}
	kids := []spanRecord{
		{Start: 10, Duration: 20}, // 10-30
		{Start: 20, Duration: 20}, // 20-40, overlaps the first
		{Start: 90, Duration: 50}, // 90-140, clipped to 100
	}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	r := &recorder{spans: append([]spanRecord{{ID: 1, Name: "op", Duration: 100}},
		spanRecord{ID: 2, Parent: 1, Name: "serve.http", Start: 10, Duration: 30})}
	if self := r.selfTimes(); self["op"] != 70 || self["serve.http"] != 30 {
		t.Errorf("self times %v, want op 70 and serve.http 30", self)
	}
}

func TestCheckCSVCountsDifferingRows(t *testing.T) {
	const header = "lambda,model,model_saturated,sim,sim_ci95,sim_saturated,sim_measured\n"
	golden := []byte(header + "7.5e-05,50.2791,false,49.8890,0.3047,false,4000\n0.00015,53.7433,false,52.4975,0.4527,false,4000\n")
	for _, tc := range []struct {
		got string
		bad int
	}{
		{string(golden), 0},
		{header + "7.5e-05,50.2791,false,49.8890,0.3047,false,4000\n0.00015,53.7433,false,52.4976,0.4527,false,4000\n", 1},
		{header + "7.5e-05,50.2791,false,49.8890,0.3047,false,4000\n", 1},
	} {
		if bad := checkCSV([]byte(tc.got), golden); bad != tc.bad {
			t.Errorf("checkCSV(%q) = %d, want %d", tc.got, bad, tc.bad)
		}
	}
}

func TestQuickestReadsTheQuickestQuarterOfWindows(t *testing.T) {
	// Half-second windows: every fourth completes 200 operations of 1 ms
	// each, the others 100 operations of 2 ms.
	phase := func(windows int) []sample {
		var samples []sample
		for w := 0; w < windows; w++ {
			n, lat := 100, float32(2)
			if w%4 == 0 {
				n, lat = 200, 1
			}
			for i := 0; i < n; i++ {
				samples = append(samples, sample{end: (float32(w) + float32(i+1)/float32(n+1)) / 2, latency: lat})
			}
		}
		return samples
	}
	q := quickest(phase(16), 8*time.Second)
	if q.windows != 4 || q.of != 16 || q.opsPerS != 400 || q.p50 != 1 || q.tail.Value != 1 || q.tail.N != 800 {
		t.Errorf("16 windows: quickest = %+v, want the 4 quick ones at 400/s with every latency 1 ms", q)
	}
	// Too few windows to rank: the whole phase.
	q = quickest(phase(8), 4*time.Second)
	if q.windows != 1 || q.of != 1 || q.opsPerS != 250 || q.p50 != 2 || q.tail.N != 1000 {
		t.Errorf("8 windows: quickest = %+v, want the whole phase at 250/s with p50 2 ms", q)
	}
}
