// Command khs-figures regenerates the evaluation figures of the paper:
// model-vs-simulation latency curves for every panel of Figures 1 and 2.
//
// Points are simulated by the parallel sweep engine: every (panel, load,
// replication) job runs on a bounded worker pool under a seed derived
// deterministically from -seed and the job's identity, so output is
// bit-identical for any -jobs value (see EXPERIMENTS.md for the seed
// scheme).
//
// Usage:
//
//	khs-figures                        # all six panels, tables + plots
//	khs-figures -panel fig1-h40        # one panel
//	khs-figures -csv -outdir results/  # write CSV files
//	khs-figures -fast                  # reduced simulation budget
//	khs-figures -jobs 8                # worker-pool size (default NumCPU)
//	khs-figures -reps 5                # pool 5 replications per point
//	khs-figures -timeout 2m            # per-point simulation timeout
//	khs-figures -model bidirectional-2d  # sweep another model variant
//	                                     # (simulator channels follow the model)
//	khs-figures -accel none            # damped model solves (the default
//	                                     # is Anderson-accelerated)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

func main() {
	// Ctrl-C cancels the sweep cooperatively: in-flight points finish,
	// queued points are skipped, and RunPanels returns ctx.Err().
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "khs-figures:", err)
		os.Exit(1)
	}
}

// run executes one full figure sweep and blocks until it finishes or ctx
// is cancelled. Tables and plots go to stdout; progress, status, and
// structured diagnostics go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("khs-figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		panelID = fs.String("panel", "", "run only this panel (e.g. fig1-h20); empty = all")
		csv     = fs.Bool("csv", false, "write CSV files instead of tables")
		outdir  = fs.String("outdir", ".", "directory for CSV output")
		fast    = fs.Bool("fast", false, "reduced simulation budget (quick look)")
		noPlot  = fs.Bool("no-plot", false, "suppress the ASCII plots")
		model   = fs.String("model", experiments.DefaultModel, "analytical model variant (a core registry name, e.g. hotspot-2d, bidirectional-2d)")
		seed    = fs.Int64("seed", 1, "base simulation seed (per-job seeds are derived from it)")
		jobs    = fs.Int("jobs", runtime.NumCPU(), "parallel simulation workers")
		reps    = fs.Int("reps", 1, "independent replications pooled per point")
		timeout = fs.Duration("timeout", 0, "per-point simulation timeout (0 = none)")
		quiet   = fs.Bool("quiet", false, "suppress per-point progress lines")
		// Fixed-point iteration knobs (DESIGN.md §10). "anderson" is the
		// default; "none" opts out to the damped baseline.
		accel = fs.String("accel", "anderson", "fixed-point acceleration scheme for the model solves: anderson, or none for damped substitution")
		// Observability (DESIGN.md §7).
		logFormat  = fs.String("log-format", "text", "structured log format for progress/status lines: text or json")
		manifest   = fs.String("manifest", "", "write one JSONL run-manifest record per simulation job to this file")
		spanOut    = fs.String("span-out", "", "write kept traces as JSONL span records to this file (truncated if it exists)")
		metricsOut = fs.String("metrics-out", "", "write sweep metrics to this file (.json = JSON snapshot, anything else = Prometheus text)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := telemetry.NewLogger(stderr, *logFormat)
	if err != nil {
		return err
	}

	budget := experiments.DefaultSimBudget()
	if *fast {
		budget = experiments.SimBudget{
			WarmupCycles: 10000, MaxCycles: 150000, MinMeasured: 1500,
		}
	}
	budget.Seed = *seed
	opts := core.Options{}
	scheme, err := fixpoint.ParseAcceleration(*accel)
	if err != nil {
		return fmt.Errorf("-accel: %w", err)
	}
	opts.FixPoint.Acceleration = scheme

	panels := experiments.Figures()
	if *panelID != "" {
		p, err := experiments.PanelByID(*panelID)
		if err != nil {
			return err
		}
		panels = []experiments.Panel{p}
	}

	sweep := experiments.Sweep{
		Jobs:       *jobs,
		Reps:       *reps,
		JobTimeout: *timeout,
		Budget:     budget,
		Model:      *model,
		Opts:       opts,
	}
	var manifestFile *os.File
	if *manifest != "" {
		f, err := os.Create(*manifest)
		if err != nil {
			return err
		}
		manifestFile = f
		sweep.Manifest = telemetry.NewManifestWriter(f)
	}
	ctx, finishSpans, err := span.StartFile(ctx, *spanOut, "khs-figures",
		core.RoundBudget(opts))
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
		sweep.Metrics = reg
	}
	stopProf, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	if !*quiet {
		sweep.Progress = func(ev experiments.SweepProgress) {
			logger.Info("point",
				"done", ev.Done, "total", ev.Total,
				"panel", ev.Panel.ID, "lambda", ev.Panel.Lambdas[ev.LambdaIdx],
				"rep", ev.Rep+1, "reps", *reps,
				"latency", ev.Result.MeanLatency, "ci95", ev.Result.CI95,
				"saturated", ev.Result.Saturated)
		}
		logger.Info("sweeping",
			"panels", len(panels), "workers", *jobs, "reps", *reps, "seed", *seed)
	}

	start := time.Now()
	results, err := sweep.RunPanels(ctx, panels)
	if serr := finishSpans(); serr != nil {
		return serr
	}
	if perr := stopProf(); perr != nil {
		return perr
	}
	if manifestFile != nil {
		if cerr := manifestFile.Close(); cerr != nil {
			return cerr
		}
	}
	if reg != nil {
		if werr := reg.WriteFile(*metricsOut); werr != nil {
			return werr
		}
	}
	if err != nil {
		return err
	}
	if !*quiet {
		logger.Info("sweep finished", "elapsed", time.Since(start).Round(time.Millisecond).String())
	}

	return render(stdout, results, *csv, *outdir, *model, *noPlot, logger)
}

// render writes the sweep results as CSV files (status on the logger) or
// as tables and ASCII plots on out.
func render(out io.Writer, results []experiments.PanelResult, csv bool, outdir, model string, noPlot bool, logger *slog.Logger) error {
	for _, pr := range results {
		p, points := pr.Panel, pr.Points
		title := fmt.Sprintf("%s %s — N=%d, V=%d, Lm=%d", p.Figure, p.Label, p.K*p.K, p.V, p.Lm)
		if csv {
			// Non-default variants get their own files so they can never
			// overwrite the published hotspot-2d reference CSVs.
			base := p.ID
			if model != experiments.DefaultModel {
				base += "-" + model
			}
			path := filepath.Join(outdir, base+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(f, points); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			// Status lines go to stderr so stdout stays clean for piping
			// (the CSV itself goes to files; tables/plots to stdout).
			logger.Info("wrote", "path", path)
			continue
		}
		if err := experiments.WriteTable(out, title, points); err != nil {
			return err
		}
		if !noPlot {
			if err := experiments.AsciiPlot(out, title, points, 64, 16); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}
