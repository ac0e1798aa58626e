package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"kncube/internal/core"
	"kncube/internal/sim"
	"kncube/internal/stats"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

// JobSeed derives the deterministic simulator seed for one sweep job from
// the base seed, the panel identity, the index of the load point on the
// panel's axis, and the replication number. Every job of a sweep therefore
// simulates an independent RNG stream (points on a curve no longer share
// one stream, so their sampling errors are uncorrelated), yet the mapping
// depends only on the job's identity — never on worker count or completion
// order — so sweep results are bit-identical at any parallelism.
//
// The derivation is an FNV-1a 64-bit hash over (base, panelID, 0xff,
// lambdaIdx, rep) with fixed-width little-endian integer encoding; the 0xff
// byte terminates the panel ID (panel IDs are ASCII) so no two field
// combinations collide by concatenation. The scheme is part of the
// published-CSV reproducibility contract and is documented in
// EXPERIMENTS.md; changing it invalidates recorded sweep data.
func JobSeed(base int64, panelID string, lambdaIdx, rep int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(panelID))
	h.Write([]byte{0xff})
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(lambdaIdx)))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(rep)))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// SweepProgress describes one completed simulation job; see Sweep.Progress.
type SweepProgress struct {
	// Panel is the job's panel; LambdaIdx indexes Panel.Lambdas; Rep is the
	// replication number in [0, Reps).
	Panel     Panel
	LambdaIdx int
	Rep       int
	// Done counts completed simulation jobs sweep-wide, Total the jobs the
	// sweep was launched with.
	Done, Total int
	// Result is the job's simulator output.
	Result sim.Result
}

// Sweep is the parallel sweep engine behind the figure harness: it expands
// (panel x load point x replication) into independent simulation jobs,
// executes them on a bounded worker pool, and pools replications into one
// Point per load point. The zero value runs every job sequentially in the
// calling goroutine's worker with a single replication.
type Sweep struct {
	// Jobs is the worker-pool size; <= 0 means runtime.NumCPU().
	Jobs int
	// Reps is the number of independent simulation replications pooled per
	// load point (distinct derived seeds; see JobSeed); <= 0 means 1.
	Reps int
	// JobTimeout bounds each simulation job; a job exceeding it fails the
	// sweep with an error wrapping context.DeadlineExceeded. 0 means no
	// per-job limit.
	JobTimeout time.Duration
	// Budget is the per-replication simulation budget. Budget.Seed is the
	// base seed every job's seed is derived from.
	Budget SimBudget
	// Model is the registry name of the model variant to sweep (see
	// core.Solvers); empty means DefaultModel. The simulator is configured
	// to match the variant (bidirectional channels for "bidirectional-2d").
	Model string
	// Opts are the analytical model options. The sweep installs its own
	// FixPoint.Trace, which records each round on the point's
	// fixpoint.solve span.
	Opts core.Options
	// Progress, when non-nil, is called serially after every completed
	// simulation job (from worker goroutines, under the engine's lock —
	// keep it light).
	Progress func(SweepProgress)
	// Manifest, when non-nil, receives one RunManifest record per
	// simulation job. Record order follows job completion, not axis order;
	// the (panel, lambda_idx, rep) fields identify each record.
	Manifest *telemetry.ManifestWriter
	// Metrics, when non-nil, accrues sweep-level telemetry:
	// khs_sweep_jobs_total{outcome} and the khs_sweep_job_seconds histogram.
	Metrics *telemetry.Registry
}

// RunManifest is one line of the sweep's JSONL run manifest: the complete
// identity (derived seed included) and outcome of one simulation job, plus —
// on replication-0 records — the analytical solve that shares the load
// point. It is the record needed to re-run or audit any single job.
type RunManifest struct {
	Panel     string  `json:"panel"`
	Lambda    float64 `json:"lambda"`
	LambdaIdx int     `json:"lambda_idx"`
	Rep       int     `json:"rep"`
	Seed      int64   `json:"seed"`
	Model     string  `json:"model"`
	// WallSeconds is the simulation job's wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	Cycles      int64   `json:"cycles"`
	Measured    int64   `json:"measured"`
	Steady      bool    `json:"steady"`
	// Outcome is "ok", "saturated" (the backlog-growth heuristic fired) or
	// "error"; Error carries the message for "error" records.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Model solve fields, set on replication-0 records only. ModelOutcome
	// is "ok", "saturated" (core.ErrSaturated) or "error"; ModelLatency is
	// omitted unless the solve succeeded (JSON has no NaN).
	ModelOutcome    string  `json:"model_outcome,omitempty"`
	ModelLatency    float64 `json:"model_latency,omitempty"`
	ModelIterations int     `json:"model_iterations,omitempty"`
	ModelError      string  `json:"model_error,omitempty"`
	// TraceID and SpanID correlate this record with the job's "sweep.sim"
	// span when the sweep ran under a tracer (khs-serve sweep jobs);
	// absent otherwise.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// PanelResult pairs a panel with its swept points.
type PanelResult struct {
	Panel  Panel
	Points []Point
}

// sweepJob identifies one simulation unit: a (panel, load point,
// replication) triple, indexed into the RunPanels inputs.
type sweepJob struct {
	panel, point, rep int
}

// RunPanels sweeps the given panels: the analytical model once per load
// point and Reps simulator replications per point, all on the worker pool.
// Results are assembled in panel/axis order and are bit-identical for any
// worker count. The first job failure cancels the remaining jobs and is
// returned; cancelling ctx aborts the sweep promptly with ctx's error.
func (s Sweep) RunPanels(ctx context.Context, panels []Panel) ([]PanelResult, error) {
	if ctx == nil {
		//lint:ignore ctxflow defensive fallback so a nil ctx degrades to uncancellable, not a panic
		ctx = context.Background()
	}
	workers := s.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 1
	}

	total := 0
	simRes := make([][][]sim.Result, len(panels))
	for i, p := range panels {
		total += len(p.Lambdas) * reps
		simRes[i] = make([][]sim.Result, len(p.Lambdas))
		for j := range simRes[i] {
			simRes[i][j] = make([]sim.Result, reps)
		}
	}

	// The analytical curves are evaluated up front, one prepared solver per
	// panel (a panel is one topology shape swept over many loads). The
	// simulation jobs then only consult the stored outcomes: manifests,
	// traces and failure semantics are unchanged, but the per-point
	// topology/layout setup is paid once per panel instead of once per point.
	model := s.Model
	if model == "" {
		model = DefaultModel
	}
	modelPts := make([][]modelPoint, len(panels))
	for i, p := range panels {
		pts, err := s.solvePanelModels(ctx, model, p)
		if err != nil {
			return nil, err
		}
		modelPts[i] = pts
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		done     int
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	jobs := make(chan sweepJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				if cctx.Err() != nil {
					continue // sweep aborted: drain the queue
				}
				s.runJob(cctx, model, panels[jb.panel], jb, reps, total,
					modelPts[jb.panel][jb.point],
					simRes, &mu, &done, fail)
			}
		}()
	}

feed:
	for i, p := range panels {
		for j := range p.Lambdas {
			for r := 0; r < reps; r++ {
				select {
				case jobs <- sweepJob{panel: i, point: j, rep: r}:
				case <-cctx.Done():
					break feed
				}
			}
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([]PanelResult, len(panels))
	for i, p := range panels {
		points := make([]Point, len(p.Lambdas))
		for j, lam := range p.Lambdas {
			pt := modelPts[i][j].point(lam)
			if reps == 1 {
				r := simRes[i][j][0]
				pt.Sim = r.MeanLatency
				pt.SimCI = r.CI95
				pt.SimSaturated = r.Saturated
				pt.SimMeasured = r.Measured
			} else {
				counts := make([]int64, reps)
				means := make([]float64, reps)
				cis := make([]float64, reps)
				for r, res := range simRes[i][j] {
					counts[r], means[r], cis[r] = res.Measured, res.MeanLatency, res.CI95
					pt.SimSaturated = pt.SimSaturated || res.Saturated
				}
				pt.Sim, pt.SimCI, pt.SimMeasured = stats.PooledMean(counts, means, cis)
			}
			points[j] = pt
		}
		out[i] = PanelResult{Panel: p, Points: points}
	}
	return out, nil
}

// runJob executes one (panel, point, rep) unit: the replication-0 job also
// records its point's precomputed analytical outcome (the model is
// deterministic, so the per-panel prepared solve suffices) and fails the
// sweep on a model error. Each writes only its own result slot; completion
// counting and the Progress callback serialise on mu.
func (s Sweep) runJob(ctx context.Context, model string, p Panel, jb sweepJob, reps, total int,
	mp modelPoint, simRes [][][]sim.Result,
	mu *sync.Mutex, done *int, fail func(error)) {

	lam := p.Lambdas[jb.point]
	// One span per (panel, λ, rep) unit when the sweep runs under a tracer
	// (khs-serve's linked job span or khs-figures' -span-out root arrives
	// through ctx; untraced sweeps pay nothing — StartChild returns nil).
	// The manifest record carries the same ids, correlating JSONL rows with
	// the trace.
	ctx, jsp := span.StartChild(ctx, "sweep.sim",
		span.String("panel", p.ID),
		span.Float64("lambda", lam),
		span.Int("lambda_idx", jb.point),
		span.Int("rep", jb.rep))
	defer jsp.End()
	rec := RunManifest{
		Panel: p.ID, Lambda: lam, LambdaIdx: jb.point, Rep: jb.rep,
		Model: model,
	}
	if jsp != nil {
		rec.TraceID = jsp.TraceID().String()
		rec.SpanID = jsp.SpanID().String()
	}
	writeManifest := func() {
		if s.Manifest != nil {
			if err := s.Manifest.Write(rec); err != nil {
				fail(fmt.Errorf("experiments: manifest %s lambda=%g rep %d: %w",
					p.ID, lam, jb.rep, err))
			}
		}
		if s.Metrics != nil {
			s.Metrics.Counter("khs_sweep_jobs_total", "sweep simulation jobs by outcome",
				telemetry.Labels{"outcome": rec.Outcome}).Inc()
			s.Metrics.Histogram("khs_sweep_job_seconds", "wall-clock time per simulation job",
				nil, telemetry.ExponentialBuckets(0.01, 4, 10)).Observe(rec.WallSeconds)
		}
	}

	if jb.rep == 0 {
		mp.fill(&rec)
		if rec.ModelOutcome == "error" {
			rec.Outcome = "error"
			rec.Error = mp.err.Error()
			jsp.SetAttr("outcome", "error")
			writeManifest()
			fail(fmt.Errorf("experiments: model %s lambda=%g: %w", p.ID, lam, mp.err))
			return
		}
	}

	budget := s.Budget
	budget.Seed = JobSeed(s.Budget.Seed, p.ID, jb.point, jb.rep)
	rec.Seed = budget.Seed
	jsp.SetAttr("seed", budget.Seed)
	jctx := ctx
	if s.JobTimeout > 0 {
		var jcancel context.CancelFunc
		jctx, jcancel = context.WithTimeout(ctx, s.JobTimeout)
		defer jcancel()
	}
	simStart := time.Now()
	res, err := RunSim(jctx, model, p, lam, budget)
	rec.WallSeconds = time.Since(simStart).Seconds()
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return // sweep-wide cancellation; the caller reports ctx's error
		}
		rec.Outcome = "error"
		rec.Error = err.Error()
		jsp.SetAttr("outcome", "error")
		writeManifest()
		fail(fmt.Errorf("experiments: sim %s lambda=%g rep %d (seed %d): %w",
			p.ID, lam, jb.rep, budget.Seed, err))
		return
	}
	simRes[jb.panel][jb.point][jb.rep] = res
	rec.Cycles, rec.Measured, rec.Steady = res.Cycles, res.Measured, res.Steady
	rec.Outcome = "ok"
	if res.Saturated {
		rec.Outcome = "saturated"
	}
	jsp.SetAttr("outcome", rec.Outcome)
	jsp.SetAttr("cycles", rec.Cycles)
	writeManifest()

	mu.Lock()
	*done++
	if s.Progress != nil {
		s.Progress(SweepProgress{
			Panel: p, LambdaIdx: jb.point, Rep: jb.rep,
			Done: *done, Total: total, Result: res,
		})
	}
	mu.Unlock()
}

// modelPoint is one precomputed analytical solve: the result (or error) and
// its last traced round — Convergence.Iterations on success, the rounds run
// before a failure otherwise.
type modelPoint struct {
	res        *core.SolveResult
	err        error
	iterations int
}

// outcome classifies the solve: "ok", "saturated" or "error".
func (mp modelPoint) outcome() string {
	switch {
	case mp.err == nil:
		return "ok"
	case errors.Is(mp.err, core.ErrSaturated):
		return "saturated"
	}
	return "error"
}

// fill copies the solve outcome into a manifest record's model fields.
func (mp modelPoint) fill(rec *RunManifest) {
	rec.ModelIterations = mp.iterations
	rec.ModelOutcome = mp.outcome()
	if mp.err == nil {
		rec.ModelLatency = mp.res.Latency
		return
	}
	rec.ModelError = mp.err.Error()
}

// point is the load point lam with the solve's model fields: its latency,
// or NaN and ModelSaturated for a saturated load. An "error" outcome has
// no point; callers fail on it first.
func (mp modelPoint) point(lam float64) Point {
	if mp.err != nil {
		return Point{Lambda: lam, Model: math.NaN(), ModelSaturated: true}
	}
	return Point{Lambda: lam, Model: mp.res.Latency}
}

// solvePanelModels evaluates the panel's analytical curve through one
// prepared solver: the topology-dependent setup runs once, then each load
// point is a cold re-solve (bit-identical to the per-point driver). Under
// a tracer each point is a fixpoint.solve span, identified by its panel,
// lambda_idx and lambda attributes.
func (s Sweep) solvePanelModels(ctx context.Context, model string, p Panel) ([]modelPoint, error) {
	// The whole analytical curve of one panel under one span (it is one
	// prepared solver reused across the loads); nil and free untraced.
	ctx, msp := span.StartChild(ctx, "sweep.model",
		span.String("panel", p.ID),
		span.Int("points", len(p.Lambdas)))
	defer msp.End()
	opts := s.Opts
	fp := span.NewFixpointTrace()
	opts.FixPoint.Trace = fp.Hook()
	var ps *core.PreparedSolver
	out := make([]modelPoint, len(p.Lambdas))
	for j, lam := range p.Lambdas {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mp := &out[j]
		if ps == nil {
			// Prepared lazily so a point-specific validation failure (e.g. a
			// non-positive λ) is charged to its own point, exactly as the
			// per-point driver charged it; the next point retries.
			var perr error
			ps, perr = core.Prepare(model, p.Spec(lam), opts)
			if perr != nil {
				ps = nil
				mp.err = perr
				continue
			}
		}
		fp.Start(ctx,
			span.String("panel", p.ID),
			span.Int("lambda_idx", j),
			span.Float64("lambda", lam))
		mp.res, mp.err = ps.Solve(lam)
		fp.End()
		mp.iterations = fp.Iterations()
	}
	return out, nil
}
