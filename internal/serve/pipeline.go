package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/surface"
)

// The per-spec solve pipeline (DESIGN.md §8). POST /v1/solve and every
// item of POST /v1/solve:batch pass through the same parts: the request
// preamble, core.ValidateSpec, the surface step and the exact step. The
// steps produce an answer tied to neither route; each route only maps it
// onto its own wire type and status. The steps open no spans: /v1/solve
// wraps them in its own, and a batch trace gains none per item.

// solveCall is what the request preamble resolves for one solve-route
// request: the model, options, serving mode and deadline every spec of the
// request is answered under, and the route's outcome counter family.
type solveCall struct {
	s       *Server
	model   string
	opts    core.Options
	mode    string
	timeout time.Duration
	counts  *counterCache[[2]string]
}

// checkModel defaults an empty model name and checks it against the
// registry; every POST route that names a model runs it.
func checkModel(model string) (string, *FieldIssue) {
	if model == "" {
		model = experiments.DefaultModel
	}
	if !slices.Contains(core.Solvers(), model) {
		return model, &FieldIssue{Field: "model",
			Reason: fmt.Sprintf("unknown model %q (registered: %v)", model, core.Solvers())}
	}
	return model, nil
}

// preamble is the request-level part of the pipeline, checked before
// admission: the model, the option names, the serving mode and
// timeout_ms. counts is the route's outcome counter family.
func (s *Server) preamble(model string, o *SolveOptions, timeoutMS int64, counts *counterCache[[2]string]) (solveCall, *FieldIssue) {
	c := solveCall{s: s, counts: counts}
	var issue *FieldIssue
	if c.model, issue = checkModel(model); issue != nil {
		return c, issue
	}
	if c.opts, issue = o.toCore(); issue != nil {
		return c, issue
	}
	if c.mode, issue = o.mode(); issue != nil {
		return c, issue
	}
	if timeoutMS < 0 {
		return c, &FieldIssue{Field: "timeout_ms", Reason: "must be >= 0"}
	}
	// A positive timeout_ms shortens, never lengthens, RequestTimeout. The
	// comparison runs in milliseconds so a huge value cannot overflow
	// time.Duration.
	c.timeout = s.cfg.RequestTimeout
	if timeoutMS > 0 && timeoutMS < c.timeout.Milliseconds() {
		c.timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return c, nil
}

// count records one outcome in the route's counter family.
func (c *solveCall) count(outcome string) {
	c.counts.get([2]string{c.model, outcome}).Inc()
}

// answer is one spec's outcome through the pipeline.
type answer struct {
	// outcome is ok, saturated, cancelled or error; err is set unless ok.
	outcome string
	err     error
	// cache is hit, miss or coalesced from the exact step, bypass from a
	// surface hit; source is ModeExact or ModeSurface.
	cache, source string
	surfaceID     string
	errEstimate   float64
	result        *SolveResult
	// shape is set when a surface-mode spec has no surface: the shape key,
	// with owner naming the replica that owns it when that is another one.
	shape, owner string
}

// fromSurface is the surface step. done reports that the spec is answered
// here: by an interpolated hit (counted ok), or, in surface mode, by the
// absence of any surface for its shape (an error answer carrying shape and
// owner, counted error). Otherwise the answer's err is the lookup refusal
// — no surface, out of range, near the saturation frontier, or an
// estimate above the threshold — and the spec falls through to the exact
// step.
func (c *solveCall) fromSurface(spec core.Spec) (a answer, done bool) {
	// Auto mode holds interpolations to the configured error-estimate
	// threshold; surface mode takes any covering one (the grid bounds it).
	var lo surface.LookupOptions
	if c.mode == ModeAuto {
		lo.MaxErrEstimate = c.s.cfg.SurfaceMaxError
	}
	lk, e, err := c.s.surfaces.Lookup(c.model, spec, c.opts, lo)
	switch {
	case err == nil:
		c.count("ok")
		// Iterations and Residual stay zero: no iteration ran.
		return answer{outcome: "ok", cache: "bypass", source: ModeSurface, surfaceID: e.ID, errEstimate: lk.ErrEstimate,
			result: &SolveResult{Latency: lk.Latency, Regular: lk.Regular, Hot: lk.Hot, SourceWait: lk.SourceWait, VBar: lk.VBar}}, true
	case c.mode == ModeSurface && errors.Is(err, surface.ErrNoSurface):
		c.count("error")
		a = answer{outcome: "error", err: err, shape: surface.ShapeKey(c.model, spec, c.opts)}
		if owner := c.s.ring.Owner(a.shape); owner != c.s.ring.Self() {
			a.owner = owner
		}
		return a, true
	}
	return answer{err: err}, false
}

// exact is the exact step: the solve cache under the key every route
// shares, the runner on a miss, and the outcome classified and counted.
func (c *solveCall) exact(ctx context.Context, runner *solveRunner, spec core.Spec) answer {
	res, how, err := c.s.cache.do(ctx, keyOf(c.model, spec, c.opts),
		func(ctx context.Context) (*SolveResult, error) {
			res, err := runner.solve(ctx, spec)
			if err != nil {
				return nil, err
			}
			return toAPIResult(res), nil
		})
	a := answer{outcome: "ok", err: err, cache: how, source: ModeExact, result: res}
	switch {
	case err == nil:
	case errors.Is(err, core.ErrSaturated):
		a.outcome = "saturated"
	case isCancellation(err):
		a.outcome = "cancelled"
	default:
		a.outcome = "error"
	}
	c.count(a.outcome)
	return a
}

// writeSolve is the /v1/solve wire mapping: 200 for a result or a
// saturation (the model's answer, not a failure), 421 or 409 for a
// surface-mode spec without a surface (owned elsewhere, or here), 504 or
// 503 for a cancelled solve, 500 for a solver error.
func (c *solveCall) writeSolve(w http.ResponseWriter, a answer) {
	switch {
	case a.outcome == "ok" || a.outcome == "saturated":
		resp := SolveResponse{Model: c.model, Cache: a.cache, Source: a.source,
			SurfaceID: a.surfaceID, ErrorEstimate: a.errEstimate, Result: a.result}
		if a.outcome == "saturated" {
			resp.Saturated, resp.Detail = true, a.err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	case a.owner != "":
		writeError(w, http.StatusMisdirectedRequest,
			fmt.Errorf("serve: shape %s is owned by replica %q, not %q: %w", a.shape, a.owner, c.s.ring.Self(), a.err))
	case a.shape != "":
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: mode \"surface\" but no surface covers shape %s (build one via POST /v1/surfaces): %w", a.shape, a.err))
	case a.outcome == "cancelled":
		writeCancelled(w, a.err, "solve exceeded its deadline", c.timeout)
	default:
		writeError(w, http.StatusInternalServerError, a.err)
	}
}

// batchItem is the /v1/solve:batch wire mapping of an answer that is not
// cancelled: its outcome is the item's status. An item carries cache only
// where the solve cache was consulted, so a surface hit leaves it empty.
func (c *solveCall) batchItem(a answer) BatchSolveItem {
	it := BatchSolveItem{Status: a.outcome, Cache: a.cache, Source: a.source,
		SurfaceID: a.surfaceID, ErrorEstimate: a.errEstimate, Result: a.result}
	if a.source == ModeSurface {
		it.Cache = ""
	}
	switch {
	case a.outcome == "saturated":
		it.Saturated, it.Detail = true, a.err.Error()
	case a.owner != "":
		it.Detail = fmt.Sprintf("mode %q but shape %s is owned by replica %q, not %q: %v",
			c.mode, a.shape, a.owner, c.s.ring.Self(), a.err)
	case a.shape != "":
		it.Detail = fmt.Sprintf("mode %q but no surface covers shape %s: %v", c.mode, a.shape, a.err)
	case a.err != nil:
		it.Detail = a.err.Error()
	}
	return it
}

// writeCancelled answers a request whose solve was cancelled: 504 naming
// the deadline when it expired (what says which solve), 503 when the
// client went away — nobody reads that one, but the exchange closes
// coherently.
func writeCancelled(w http.ResponseWriter, err error, what string, timeout time.Duration) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("%s (%s): %w", what, timeout, err))
		return
	}
	writeError(w, http.StatusServiceUnavailable, err)
}
