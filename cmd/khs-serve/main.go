// Command khs-serve runs the latency-model service: an HTTP JSON API over
// the analytical solvers and the parallel sweep engine, with a keyed solve
// cache, admission control, async sweep jobs, request tracing, and
// Prometheus metrics.
//
// Usage:
//
//	khs-serve -addr 127.0.0.1:8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/solve \
//	  -d '{"k":16,"v":2,"lm":32,"h":0.2,"lambda":0.00015}'
//	curl -s -X POST localhost:8080/v1/sweeps -d '{"panel":"fig1-h20"}'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/version
//
// Every request is traced (send a W3C traceparent header to join your own
// trace; the response echoes ours) and logged as one structured line on
// stderr — text by default, JSON with -log-format json. Kept traces are
// retrievable at /v1/traces/{id} and exported as JSONL via -span-out.
//
// On SIGINT/SIGTERM the server drains: health turns 503, new work is
// refused, running sweep jobs get -drain-timeout to finish (then are
// cancelled), and in-flight HTTP exchanges complete before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kncube/internal/serve"
	"kncube/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "khs-serve:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (then drains) or
// the listener fails. ready, when non-nil, receives the bound address once
// the server is accepting — tests use it to hit an ephemeral port.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("khs-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		cacheSize    = fs.Int("cache-size", 0, "solve cache entries (0 = default 4096, negative disables retention)")
		maxInflight  = fs.Int("max-inflight", 0, "admitted concurrent solves (0 = 4 x NumCPU)")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-solve deadline cap")
		sweepJobs    = fs.Int("sweep-jobs", 0, "default worker-pool size per sweep job (0 = NumCPU)")
		maxSweeps    = fs.Int("max-sweeps", 2, "concurrently-running sweep jobs before shedding")
		drainTimeout = fs.Duration("drain-timeout", 60*time.Second, "how long shutdown waits for running sweep jobs")
		surfaceDir   = fs.String("surface-dir", "", "persist built latency surfaces here and load them at startup")
		surfaceErr   = fs.Float64("surface-max-error", 0, "auto-mode interpolation error-estimate threshold (0 = default 0.01, negative disables)")
		shardID      = fs.String("shard-id", "", "this replica's name on the consistent-hash surface ring")
		shardPeers   = fs.String("shard-peers", "", "comma-separated ring membership (surface builds for shapes owned elsewhere are refused with 421)")
		logFormat    = fs.String("log-format", "text", "structured log format: text or json")
		spanOut      = fs.String("span-out", "", "write kept traces as JSONL span records to this file (truncated if it exists)")
		traceBuffer  = fs.Int("trace-buffer", 0, "traces retained for GET /v1/traces/{id} (0 = default 256)")
		traceSlow    = fs.Duration("trace-slow", 0, "always keep traces at least this slow (0 = default 250ms, negative disables)")
		traceRatio   = fs.Float64("trace-keep-ratio", 0, "fraction of unremarkable traces kept (0 = keep all, negative = none)")
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

	var spanFile *os.File
	var spanSink io.Writer
	if *spanOut != "" {
		f, err := os.Create(*spanOut)
		if err != nil {
			return err
		}
		spanFile, spanSink = f, f
	}

	var peers []string
	for _, p := range strings.Split(*shardPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) > 0 && *shardID == "" {
		return fmt.Errorf("-shard-peers requires -shard-id (this replica's own ring name)")
	}

	srv := serve.New(serve.Config{
		MaxInflight:        *maxInflight,
		CacheSize:          *cacheSize,
		RequestTimeout:     *reqTimeout,
		SweepJobs:          *sweepJobs,
		MaxActiveSweeps:    *maxSweeps,
		SurfaceDir:         *surfaceDir,
		SurfaceMaxError:    *surfaceErr,
		ShardID:            *shardID,
		ShardPeers:         peers,
		Logger:             logger,
		TraceExport:        spanSink,
		TraceBuffer:        *traceBuffer,
		SlowTraceThreshold: *traceSlow,
		TraceKeepRatio:     *traceRatio,
	})
	if n, err := srv.LoadSurfaces(); err != nil {
		return fmt.Errorf("loading surfaces from %s: %w", *surfaceDir, err)
	} else if n > 0 {
		logger.Info("surfaces loaded", "dir", *surfaceDir, "count", n)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Info("listening on", "addr", ln.Addr().String(), "log_format", *logFormat)
	if ready != nil {
		ready(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", (*drainTimeout).String())
	//lint:ignore ctxflow the drain deadline must outlive the already-cancelled signal ctx
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Jobs were cut short; report it but still close the listener cleanly.
		logger.Warn("drain cut short", "err", err.Error())
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			return err
		}
	}
	logger.Info("stopped")
	return nil
}
