// Command perfbench is the repository benchmark. It drives the repo's own
// entry points in-process: khs-serve's handler (serve.New with the
// daemon's defaults) on a loopback listener for the two serve
// workloads, and khs-figures' sweep engine (experiments.Sweep.RunPanels)
// for the figures workload. It prints every metric by name with its unit,
// checks the outputs, and ends with one JSON result line.
//
// Run it from the repository root through its launcher, which builds it:
//
//	bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics of an
// untraced run. With --trace 1 the same run is followed by a traced
// replay that times calls into each layer from outside, and the result
// line carries the per-layer metrics; the spans are written as JSONL.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Each run sets its workload up at least minSetups times and, while it
// has spent less than setupBudget on it, up to maxSetups times; setup_s is
// the median. A cheap set-up is repeated often enough for its median to
// hold still, a surface build only a few times.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 250 * time.Millisecond
)

// timeSetup runs setup repeatedly as the constants above allow and
// returns the median time in seconds.
func timeSetup(setup func() error) (float64, error) {
	var times []float64
	var spent time.Duration
	for len(times) < minSetups || (len(times) < maxSetups && spent < setupBudget) {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d := time.Since(t)
		spent += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, io.Writer) (*outcome, error){
	"serve-surface": func(c runConfig, w io.Writer) (*outcome, error) { return runServe("serve-surface", c, w) },
	"serve-batch":   func(c runConfig, w io.Writer) (*outcome, error) { return runServe("serve-batch", c, w) },
	"figures":       runFigures,
}

// runConfig is one run's command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spanOut string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-surface, serve-batch or figures")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
	spanOut := fs.String("span-out", "", "JSONL file for the traced run's spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *workload)
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, spanOut: *spanOut}
	if cfg.spanOut == "" {
		cfg.spanOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
	}

	out, err := runner(cfg, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "failed_ratio: %d of %d operations failed (%.4f)\n",
		out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted)))
	set := endToEnd
	if cfg.trace {
		set = perLayer
		fmt.Fprintf(stdout, "spans: %s\n", cfg.spanOut)
	}
	for _, m := range set {
		line := fmt.Sprintf("metric: %-40s %14.6g %s", m.Name, out.values[m.Name], m.Unit)
		if m.Moves != "" {
			line += fmt.Sprintf("  (moves %s on %s)", m.Moves, m.Workload)
		}
		fmt.Fprintln(stdout, line)
	}
	return writeResult(stdout, out, set)
}
