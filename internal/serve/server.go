package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/stats"
	"kncube/internal/surface"
	"kncube/internal/surface/shard"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

// Config tunes the service layer. The zero value of any field selects the
// documented default.
type Config struct {
	// MaxInflight bounds concurrently-admitted solves; requests beyond it
	// are shed with 429 rather than queued. Default 4 × NumCPU.
	MaxInflight int
	// CacheSize bounds the LRU solve cache in entries. Default 4096;
	// negative disables retention (singleflight deduplication remains).
	CacheSize int
	// RequestTimeout caps each solve's deadline (clients may only lower it
	// via timeout_ms). Propagated as context cancellation into the
	// fixed-point iteration. Default 30s.
	RequestTimeout time.Duration
	// SweepJobs is the default worker-pool size of each sweep job.
	// Default NumCPU.
	SweepJobs int
	// MaxActiveSweeps bounds concurrently-running async jobs (sweeps and
	// surface builds share the cap); submissions beyond it are shed with
	// 429. Default 2.
	MaxActiveSweeps int
	// MaxStoredSweeps bounds retained terminal jobs (oldest pruned).
	// Default 256.
	MaxStoredSweeps int
	// SurfaceDir persists built latency surfaces and is loaded back by
	// LoadSurfaces at startup. Empty keeps surfaces in memory only.
	SurfaceDir string
	// SurfaceMaxError is the auto-mode interpolation error-estimate
	// threshold: auto-mode solves interpolate only when the surface's
	// estimate is below it, else solve exactly. Default 0.01 (1%);
	// negative disables the bound.
	SurfaceMaxError float64
	// ShardID and ShardPeers configure the consistent-hash surface ring:
	// this replica's name and the full fleet membership. Surface builds
	// for shapes another replica owns are refused with 421 and the owner's
	// name. Empty ShardID (with no peers) owns every shape.
	ShardID    string
	ShardPeers []string
	// Registry receives the khs_serve_* metric set and serves GET /metrics.
	// Default: a fresh registry.
	Registry *telemetry.Registry
	// Logger receives the structured access log (one line per request,
	// carrying trace_id/span_id) and job lifecycle lines. Default: discard.
	Logger *slog.Logger
	// TraceExport, when non-nil, additionally receives every kept trace as
	// JSONL (the GET /v1/traces/{id} ring retains them regardless).
	TraceExport io.Writer
	// TraceBuffer bounds the in-memory trace ring serving /v1/traces/{id},
	// in distinct traces. Default 256.
	TraceBuffer int
	// SlowTraceThreshold, TraceKeepRatio and TraceSeed configure the
	// tail-sampling policy; see span.TailPolicy for the zero-value
	// defaults (250ms, keep-all, clock-seeded ids).
	SlowTraceThreshold time.Duration
	TraceKeepRatio     float64
	TraceSeed          int64
	// RuntimeMetricsInterval paces the khs_runtime_* process-metric
	// sampler. Default 10s; negative disables the ticker (one synchronous
	// sample is still taken at construction).
	RuntimeMetricsInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInflight == 0 {
		c.MaxInflight = 4 * runtime.NumCPU()
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SweepJobs == 0 {
		c.SweepJobs = runtime.NumCPU()
	}
	if c.MaxActiveSweeps == 0 {
		c.MaxActiveSweeps = 2
	}
	if c.MaxStoredSweeps == 0 {
		c.MaxStoredSweeps = 256
	}
	if stats.IsZero(c.SurfaceMaxError) {
		c.SurfaceMaxError = 0.01
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	if c.RuntimeMetricsInterval == 0 {
		c.RuntimeMetricsInterval = 10 * time.Second
	}
	return c
}

// Server is the khs-serve service: handlers, solve cache, admission
// control, and the sweep job store. Build with New, mount Handler, and
// call Shutdown to drain.
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	log    *slog.Logger
	tracer *span.Tracer
	traces *span.RingExporter
	cache  *solveCache
	// prepared pools the idle prepared solvers every request's cache
	// misses check out, bounded by the bytes they hold.
	prepared *core.PreparedSet
	jobs     *jobStore
	surfaces *surface.Store
	ring     *shard.Ring
	slots    chan struct{}
	inflight *telemetry.Gauge
	draining atomic.Bool

	// Metric handles resolved once: the histograms in New, the counters
	// per label values on first use, so recording a request builds no
	// bucket slice or label map.
	solveSeconds, batchSeconds, batchSize *telemetry.Histogram
	shedTotal                             *counterCache[string]
	solvesTotal, batchItemsTotal          *counterCache[[2]string]

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mux *http.ServeMux
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		log:      cfg.Logger,
		traces:   span.NewRingExporter(cfg.TraceBuffer, cfg.TraceExport),
		cache:    newSolveCache(cfg.CacheSize, cfg.Registry),
		prepared: core.NewPreparedSet(),
		slots:    make(chan struct{}, cfg.MaxInflight),
	}
	s.tracer = span.New(span.Config{
		Exporter: s.traces,
		Seed:     cfg.TraceSeed,
		Tail: span.TailPolicy{
			SlowThreshold: cfg.SlowTraceThreshold,
			KeepRatio:     cfg.TraceKeepRatio,
			Seed:          cfg.TraceSeed,
		},
	})
	s.jobs = newJobStore(cfg.MaxActiveSweeps, cfg.MaxStoredSweeps, cfg.Registry, s.tracer, s.log)
	s.surfaces = surface.NewStore(cfg.Registry)
	s.ring = shard.New(cfg.ShardID, cfg.ShardPeers, 0)
	s.inflight = s.reg.Gauge("khs_serve_inflight_solves", "solves currently admitted", nil)
	s.solveSeconds = s.reg.Histogram("khs_serve_solve_seconds", "end-to-end solve time (cache included)",
		nil, telemetry.ExponentialBuckets(1e-5, 4, 12))
	s.batchSeconds = s.reg.Histogram("khs_serve_batch_seconds", "end-to-end batch solve time (cache included)",
		nil, telemetry.ExponentialBuckets(1e-5, 4, 12))
	s.batchSize = s.reg.Histogram("khs_serve_batch_size", "specs per batch solve request",
		nil, telemetry.ExponentialBuckets(1, 2, 9))
	s.shedTotal = newCounterCache(func(reason string) *telemetry.Counter {
		return s.reg.Counter("khs_serve_shed_total", "requests shed by admission control",
			telemetry.Labels{"reason": reason})
	})
	s.solvesTotal = newCounterCache(func(k [2]string) *telemetry.Counter {
		return s.reg.Counter("khs_serve_solves_total", "solve requests by model and outcome",
			telemetry.Labels{"model": k[0], "outcome": k[1]})
	})
	s.batchItemsTotal = newCounterCache(func(k [2]string) *telemetry.Counter {
		return s.reg.Counter("khs_serve_batch_items_total", "batch solve items by model and outcome",
			telemetry.Labels{"model": k[0], "outcome": k[1]})
	})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	registerBuildInfo(s.reg)
	startRuntimeSampler(s.baseCtx, s.reg, cfg.RuntimeMetricsInterval)

	s.mux = http.NewServeMux()
	s.route("POST /v1/solve", s.handleSolve)
	s.route("POST /v1/solve:batch", s.handleSolveBatch)
	s.route("POST /v1/sweeps", s.handleSweepCreate)
	s.route("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.route("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.route("POST /v1/surfaces", s.handleSurfaceCreate)
	s.route("GET /v1/surfaces", s.handleSurfaceList)
	s.route("GET /v1/surfaces/{id}", s.handleSurfaceGet)
	s.route("GET /v1/models", s.handleModels)
	s.route("GET /v1/traces/{id}", s.handleTraceGet)
	s.route("GET /v1/version", s.handleVersion)
	s.route("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", telemetry.Handler(s.reg))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry carrying the khs_serve_* metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Shutdown drains the server gracefully: new solves and sweep submissions
// are refused with 503, healthz turns 503 so load balancers stop routing
// here, and running sweep jobs are waited for until ctx expires — then
// cancelled. Status reads keep working throughout so clients can collect
// results.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.jobs.drain(ctx)
	s.baseCancel()
	return err
}

// route mounts a handler wrapped with the request-metrics and tracing
// middleware; the route pattern itself is the metric label, keeping
// cardinality fixed. Every request gets a root span — adopting the
// caller's trace id when a valid traceparent header is inbound, minting a
// fresh one otherwise — and one structured access-log line carrying the
// same trace_id/span_id, so logs, metrics, and traces cross-reference.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	seconds := s.reg.Histogram("khs_serve_request_seconds",
		"request latency by route", telemetry.Labels{"route": pattern},
		telemetry.ExponentialBuckets(1e-4, 4, 10))
	requests := newCounterCache(func(code int) *telemetry.Counter {
		return s.reg.Counter("khs_serve_requests_total", "requests by route and status code",
			telemetry.Labels{"route": pattern, "code": strconv.Itoa(code)})
	})
	// The root span's name and route attribute are the same for every
	// request of the route: built once here, not per request.
	spanName, routeAttr := "http "+pattern, span.String("http.route", pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if tp := r.Header.Get(span.TraceparentHeader); tp != "" {
			// A malformed header starts a fresh trace rather than failing
			// the request, per the W3C processing model.
			if p, perr := span.ParseTraceparent(tp); perr == nil {
				ctx = span.ContextWithParent(ctx, p)
			}
		}
		ctx, sp := s.tracer.Start(ctx, spanName, span.String("http.method", r.Method), routeAttr)
		// Hand our context back so the caller (and any downstream hop it
		// makes) can correlate with this server's spans.
		w.Header().Set(span.TraceparentHeader, span.FormatTraceparent(span.Parent{
			TraceID: sp.TraceID(), SpanID: sp.SpanID(), Sampled: true,
		}))

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r.WithContext(ctx))

		elapsed := time.Since(start)
		sp.SetAttr("http.status", int64(rec.status))
		if rec.status >= 400 {
			sp.Keep("http-error")
		}
		logAttrs := []any{
			"method", r.Method,
			"route", pattern,
			"status", rec.status,
			"duration_ms", float64(elapsed.Nanoseconds()) / 1e6,
			"trace_id", sp.TraceID().String(),
			"span_id", sp.SpanID().String(),
		}
		// Handlers surface the cache outcome on the root span; lift it
		// into the access log when present.
		if v, ok := sp.AttrValue("cache"); ok {
			logAttrs = append(logAttrs, "cache", v)
		}
		sp.End()
		s.log.Info("request", logAttrs...)
		seconds.Observe(elapsed.Seconds())
		requests.get(rec.status).Inc()
	})
}

// counterCache holds the counters of one metric family by their label
// values. The registry lookup takes a telemetry.Labels map, so resolving a
// series on every request would build one per request; the cache builds
// it once per series, on the series' first use. resolve is the family's
// one registration site.
type counterCache[K comparable] struct {
	resolve func(K) *telemetry.Counter
	mu      sync.RWMutex
	held    map[K]*telemetry.Counter
}

func newCounterCache[K comparable](resolve func(K) *telemetry.Counter) *counterCache[K] {
	return &counterCache[K]{resolve: resolve, held: map[K]*telemetry.Counter{}}
}

// get returns the counter of the series labelled by k.
func (c *counterCache[K]) get(k K) *telemetry.Counter {
	c.mu.RLock()
	ctr := c.held[k]
	c.mu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr = c.held[k]; ctr == nil {
		ctr = c.resolve(k)
		c.held[k] = ctr
	}
	return ctr
}

// statusRecorder captures the response status for the request counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// shed refuses a request under overload or drain, counting the shed.
func (s *Server) shed(w http.ResponseWriter, status int, reason string) {
	s.shedTotal.get(reason).Inc()
	writeJSON(w, status, ErrorResponse{Error: "overloaded: " + reason})
}

// decodeStrict decodes a JSON body rejecting unknown fields, so client
// typos surface as 400s instead of silently-defaulted parameters.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// handleSolve is POST /v1/solve: the preamble and spec validation, then
// the surface step before admission (a hit answers in microseconds
// without a slot, a cache entry or a solver iteration), then admission and
// the exact step under the request deadline, plumbed into the fixed-point
// iteration.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFieldIssues(w, FieldIssue{Field: "body", Reason: err.Error()})
		return
	}
	c, issue := s.preamble(req.Model, req.Options, req.TimeoutMS, s.solvesTotal)
	if issue != nil {
		writeFieldIssues(w, *issue)
		return
	}
	spec := core.Spec{K: req.K, Dims: req.Dims, V: req.V, Lm: req.Lm, H: req.H, Lambda: req.Lambda}
	// Validation before admission: rejecting a bad spec is cheap and must
	// never consume a solve slot or reach the cache.
	if err := core.ValidateSpec(c.model, spec, c.opts); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if c.mode != ModeExact {
		_, sp := span.StartChild(r.Context(), "surface.lookup",
			span.String("mode", c.mode),
			span.String("model", c.model),
			span.Float64("lambda", spec.Lambda))
		a, done := c.fromSurface(spec)
		switch {
		case !done:
			sp.SetAttr("outcome", "fallback")
			sp.SetAttr("reason", fallbackReason(a.err))
		case a.shape != "":
			sp.SetAttr("outcome", "no-surface")
		default:
			sp.SetAttr("outcome", "hit")
			sp.SetAttr("surface_id", a.surfaceID)
			sp.SetAttr("err_estimate", a.errEstimate)
		}
		sp.End()
		if done {
			c.writeSolve(w, a)
			return
		}
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	cctx, csp := span.StartChild(r.Context(), "cache")
	ctx, cancel := context.WithTimeout(cctx, c.timeout)
	defer cancel()
	runner := newSolveRunner(ctx, s.prepared, c.model, c.opts)
	start := time.Now()
	a := c.exact(ctx, runner, spec)
	csp.SetAttr("outcome", a.cache)
	if a.cache == cacheMiss {
		// Miss leaders carry the full solver span tree — the interesting
		// traces; hits and coalesced followers are ratio-sampled.
		csp.Keep("cache-miss")
	}
	csp.End()
	span.FromContext(r.Context()).SetAttr("cache", a.cache)
	s.solveSeconds.Observe(time.Since(start).Seconds())
	c.writeSolve(w, a)
}

// maxBatchItems bounds one POST /v1/solve:batch request. Larger workloads
// should be split by the client or submitted as async sweep jobs — a batch
// holds one admission slot for its whole duration, so unbounded batches
// would starve interactive solves.
const maxBatchItems = 256

// Limits on one POST /v1/sweeps request, checked before anything is
// allocated or run. reps sizes a per-point result slice and multiplies the
// simulations; jobs sizes the worker pool; the cycle budgets bound the
// work of each replication and, past saturation, its source-queue backlog.
// The cycle cap is four times the default budget's MaxCycles.
const (
	maxSweepReps   = 100
	maxSweepJobs   = 32
	maxSweepCycles = 2_400_000
)

// sweepLimitIssue reports the first reps, jobs or budget field of req that
// is negative or above its limit, or whose resolved warm-up does not end
// before the cycle cap; nil when the request is within bounds.
func sweepLimitIssue(req *SweepRequest, budget experiments.SimBudget) *FieldIssue {
	if req.Reps > maxSweepReps {
		return &FieldIssue{Field: "reps", Reason: fmt.Sprintf("reps = %d, want <= %d", req.Reps, maxSweepReps)}
	}
	if req.Jobs > maxSweepJobs {
		return &FieldIssue{Field: "jobs", Reason: fmt.Sprintf("jobs = %d, want <= %d", req.Jobs, maxSweepJobs)}
	}
	if b := req.Budget; b != nil {
		for _, f := range []struct {
			name  string
			value int64
		}{
			{"budget.warmup_cycles", b.WarmupCycles},
			{"budget.max_cycles", b.MaxCycles},
		} {
			if f.value < 0 || f.value > maxSweepCycles {
				return &FieldIssue{Field: f.name, Reason: fmt.Sprintf("%s = %d, want 0..%d", f.name, f.value, maxSweepCycles)}
			}
		}
		if b.MinMeasured < 0 {
			return &FieldIssue{Field: "budget.min_measured", Reason: fmt.Sprintf("budget.min_measured = %d, want >= 0", b.MinMeasured)}
		}
	}
	if budget.WarmupCycles >= budget.MaxCycles {
		return &FieldIssue{Field: "budget.warmup_cycles", Reason: fmt.Sprintf(
			"warm-up %d cycles leaves no measurement before the %d-cycle cap", budget.WarmupCycles, budget.MaxCycles)}
	}
	return nil
}

// handleSolveBatch is POST /v1/solve:batch: many specs of one model through
// one admission slot. The preamble and the item count are checked before
// admission; each item then runs the per-spec pipeline inside it, reusing
// one prepared solver per distinct topology shape across the cache misses.
// Per-item failures never fail the batch — only a deadline or client
// hang-up aborts it.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSolveRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFieldIssues(w, FieldIssue{Field: "body", Reason: err.Error()})
		return
	}
	c, issue := s.preamble(req.Model, req.Options, req.TimeoutMS, s.batchItemsTotal)
	if issue == nil && len(req.Items) == 0 {
		issue = &FieldIssue{Field: "items", Reason: "required: at least one spec"}
	}
	if issue == nil && len(req.Items) > maxBatchItems {
		issue = &FieldIssue{Field: "items",
			Reason: fmt.Sprintf("batch of %d items exceeds the %d-item cap", len(req.Items), maxBatchItems)}
	}
	if issue != nil {
		writeFieldIssues(w, *issue)
		return
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()

	s.batchSize.Observe(float64(len(req.Items)))
	start := time.Now()
	defer func() { s.batchSeconds.Observe(time.Since(start).Seconds()) }()

	// Every item is counted by its status: invalid specs here, the rest by
	// the pipeline steps.
	runner := newSolveRunner(ctx, s.prepared, c.model, c.opts)
	items := make([]BatchSolveItem, len(req.Items))
	for i, bs := range req.Items {
		spec := core.Spec{K: bs.K, Dims: bs.Dims, V: bs.V, Lm: bs.Lm, H: bs.H, Lambda: bs.Lambda}
		if err := core.ValidateSpec(c.model, spec, c.opts); err != nil {
			items[i] = BatchSolveItem{Status: "invalid", Detail: err.Error(), Fields: fieldIssues(err)}
			c.count("invalid")
			continue
		}
		a, done := answer{}, false
		if c.mode != ModeExact {
			a, done = c.fromSurface(spec)
		}
		if !done {
			a = c.exact(ctx, runner, spec)
		}
		if a.outcome == "cancelled" {
			writeCancelled(w, a.err, fmt.Sprintf("batch item %d exceeded the request deadline", i), c.timeout)
			return
		}
		items[i] = c.batchItem(a)
	}
	writeJSON(w, http.StatusOK, BatchSolveResponse{Model: c.model, Items: items})
}

// handleSweepCreate is POST /v1/sweeps: resolve the panel, build a Sweep
// over the parallel engine, and launch it as an async job.
func (s *Server) handleSweepCreate(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFieldIssues(w, FieldIssue{Field: "body", Reason: err.Error()})
		return
	}
	if req.Panel == "" {
		writeFieldIssues(w, FieldIssue{Field: "panel", Reason: "required: one of the figure panel ids (e.g. fig1-h20)"})
		return
	}
	panel, err := experiments.PanelByID(req.Panel)
	if err != nil {
		writeFieldIssues(w, FieldIssue{Field: "panel", Reason: err.Error()})
		return
	}
	model, issue := checkModel(req.Model)
	if issue != nil {
		writeFieldIssues(w, *issue)
		return
	}
	if req.Points < 0 || req.Reps < 0 || req.Jobs < 0 {
		writeFieldIssues(w, FieldIssue{Field: "points", Reason: "points, reps and jobs must be >= 0"})
		return
	}
	if req.Points > 0 && req.Points < len(panel.Lambdas) {
		panel.Lambdas = panel.Lambdas[:req.Points]
	}
	budget := experiments.DefaultSimBudget()
	if b := req.Budget; b != nil {
		if b.WarmupCycles != 0 {
			budget.WarmupCycles = b.WarmupCycles
		}
		if b.MaxCycles != 0 {
			budget.MaxCycles = b.MaxCycles
		}
		if b.MinMeasured != 0 {
			budget.MinMeasured = b.MinMeasured
		}
		if b.Seed != 0 {
			budget.Seed = b.Seed
		}
	}
	if issue := sweepLimitIssue(&req, budget); issue != nil {
		writeFieldIssues(w, *issue)
		return
	}
	jobs := req.Jobs
	if jobs == 0 {
		jobs = s.cfg.SweepJobs
	}
	sw := experiments.Sweep{
		Jobs:    jobs,
		Reps:    req.Reps,
		Budget:  budget,
		Model:   req.Model,
		Metrics: s.reg,
	}

	if s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	rs := span.FromContext(r.Context())
	link := span.Parent{TraceID: rs.TraceID(), SpanID: rs.SpanID()}
	j, err := s.jobs.launch(s.baseCtx, sw, []experiments.Panel{panel}, model, link)
	switch {
	case errors.Is(err, errTooManyJobs):
		s.shed(w, http.StatusTooManyRequests, "sweep-cap")
		return
	case errors.Is(err, errDraining):
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleSweepGet is GET /v1/sweeps/{id}. Surface-build jobs live at
// /v1/surfaces/{id}, so a non-sweep id is a 404 here.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok || j.kind != jobKindSweep {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleSweepCancel is DELETE /v1/sweeps/{id}: cancel the job's context.
// Cancelling a terminal job is a no-op; the response always carries the
// current status.
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok || j.kind != jobKindSweep {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleHealthz reports liveness; 503 while draining so load balancers
// stop routing new work here during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
