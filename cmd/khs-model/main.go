// Command khs-model evaluates the analytical hot-spot latency models of
// Loucif, Ould-Khaoua, Min (IPDPS 2005) for k-ary n-cubes.
//
// The -model flag selects any registered model variant (hotspot-2d,
// bidirectional-2d, uniform, ndim, and hypercube, which is ndim at K = 2)
// and composes with every mode: a single point (default), -sweep, and
// -saturation.
//
// Usage:
//
//	khs-model -k 16 -v 2 -lm 32 -h 0.2 -lambda 0.0002
//	khs-model -model bidirectional-2d -k 16 -h 0.2 -sweep 0.0006 -points 12
//	khs-model -model uniform -k 16 -saturation
//	khs-model -model hypercube -k 2 -n 10 -h 0.1 -lambda 0.001
//	khs-model -k 16 -h 0.2 -sweep 0.0006 -accel none
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kncube"
	"kncube/internal/core"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "khs-model:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line parsing failure (an unknown flag or a
// malformed value); the flag package has already printed the usage.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode maps run's error to the process exit status: 2 for a usage
// error, as the flag package's own ExitOnError mode does, 1 otherwise.
func exitCode(err error) int {
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("khs-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		model  = fs.String("model", "", "model variant: "+strings.Join(kncube.Models(), ", ")+" (default hotspot-2d)")
		k      = fs.Int("k", 16, "radix (0 = the variant's default)")
		n      = fs.Int("n", 2, "dimensions (used by hypercube/ndim; the 2-D variants require 2)")
		v      = fs.Int("v", 2, "virtual channels per physical channel")
		lm     = fs.Int("lm", 32, "message length in flits")
		h      = fs.Float64("h", 0.2, "hot-spot fraction in [0,1)")
		lambda = fs.Float64("lambda", 1e-4, "generation rate, messages/node/cycle")
		sweep  = fs.Float64("sweep", 0, "sweep lambda from 0 to this value instead of a single point")
		points = fs.Int("points", 10, "number of sweep points")
		sat    = fs.Bool("saturation", false, "locate the saturation rate by bisection")
		// Fixed-point iteration knobs (DESIGN.md §10). "anderson" is the
		// default; "none" opts out to the damped baseline.
		accel = fs.String("accel", "anderson", "fixed-point acceleration scheme: anderson, or none for damped substitution")
		// Observability (DESIGN.md §7).
		spanOut    = fs.String("span-out", "", "write kept traces as JSONL span records to this file (truncated if it exists)")
		metricsOut = fs.String("metrics-out", "", "write solver metrics to this file (.json = JSON snapshot, anything else = Prometheus text)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	name := *model
	if name == "" {
		name = "hotspot-2d"
	}

	// Flags the user did not set explicitly bend to the variant's natural
	// defaults: the uniform baseline has no hot-spot class, and the
	// hypercube is the 2-ary n-cube.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if name == "uniform" && !explicit["h"] {
		*h = 0
	}
	if name == "hypercube" && !explicit["k"] {
		*k = 2
	}

	opts := kncube.ModelOptions{}
	scheme, err := kncube.ParseAcceleration(*accel)
	if err != nil {
		return fmt.Errorf("-accel: %w", err)
	}
	opts.FixPoint.Acceleration = scheme
	spec := func(lam float64) kncube.ModelSpec {
		return kncube.ModelSpec{K: *k, Dims: *n, V: *v, Lm: *lm, H: *h, Lambda: lam}
	}

	// One root span per run; each solve is a fixpoint.solve child.
	ctx, finishSpans, err := span.StartFile(ctx, *spanOut, "khs-model",
		core.RoundBudget(opts))
	if err != nil {
		return err
	}
	fp := span.NewFixpointTrace()
	opts.FixPoint.Trace = fp.Hook()
	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
	}
	stopProf, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if serr := finishSpans(); serr != nil && retErr == nil {
			retErr = serr
		}
		if reg != nil {
			if werr := reg.WriteFile(*metricsOut); werr != nil && retErr == nil {
				retErr = werr
			}
		}
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	// solve wraps kncube.Solve with the observability hooks: a
	// fixpoint.solve span per solve (when -span-out is set) and
	// khs_model_* metrics (when -metrics-out is set).
	solve := func(lam float64) (*kncube.SolveResult, error) {
		fp.Start(ctx, span.String("model", name), span.Float64("lambda", lam))
		r, err := kncube.Solve(name, spec(lam), opts)
		fp.End()
		if reg != nil {
			outcome := "ok"
			switch {
			case errors.Is(err, kncube.ErrSaturated):
				outcome = "saturated"
			case err != nil:
				outcome = "error"
			}
			reg.Counter("khs_model_solves_total", "analytical solves by outcome",
				telemetry.Labels{"model": name, "outcome": outcome}).Inc()
			if r != nil {
				reg.Histogram("khs_model_solve_iterations", "fixed-point iterations per converged solve",
					nil, telemetry.ExponentialBuckets(1, 2, 12)).
					Observe(float64(r.Convergence.Iterations))
				reg.Gauge("khs_model_solve_residual", "final residual of the last converged solve", nil).
					Set(r.Convergence.Residual)
			}
		}
		return r, err
	}

	switch {
	case *sat:
		rate, err := kncube.SaturationLambda(func(lam float64) error {
			_, err := solve(lam)
			return err
		}, 1e-8, 0, 1e-4)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s saturation rate: %.6g messages/node/cycle\n", name, rate)
	case *sweep > 0:
		fmt.Fprintln(stdout, "lambda,latency,regular,hot,ws,vbar,iterations")
		for i := 1; i <= *points; i++ {
			lam := *sweep * float64(i) / float64(*points)
			r, err := solve(lam)
			if errors.Is(err, kncube.ErrSaturated) {
				fmt.Fprintf(stdout, "%.6g,saturated,,,,,\n", lam)
				continue
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%.6g,%.2f,%.2f,%.2f,%.2f,%.3f,%d\n",
				lam, r.Latency, r.Regular, r.Hot, r.SourceWait, r.VBar, r.Convergence.Iterations)
		}
	default:
		r, err := solve(*lambda)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model             %s\n", name)
		fmt.Fprintf(stdout, "mean latency      %10.2f cycles\n", r.Latency)
		fmt.Fprintf(stdout, "  regular         %10.2f cycles\n", r.Regular)
		fmt.Fprintf(stdout, "  hot-spot        %10.2f cycles\n", r.Hot)
		fmt.Fprintf(stdout, "source waiting    %10.2f cycles\n", r.SourceWait)
		fmt.Fprintf(stdout, "multiplexing      V̄=%.3f\n", r.VBar)
		fmt.Fprintf(stdout, "max utilisation   %.3f\n", r.MaxUtilisation)
		fmt.Fprintf(stdout, "convergence       %d iterations, residual %.3g\n",
			r.Convergence.Iterations, r.Convergence.Residual)
	}
	return nil
}
