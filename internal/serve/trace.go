package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"kncube/internal/core"
	"kncube/internal/telemetry/span"
)

// admit runs admission control for a solve-family request under an
// "admission" child span: the drain check, then the non-blocking slot
// grab (requests beyond MaxInflight shed rather than queue, so the span
// is a decision record, not a wait). It returns the function that gives
// the slot back; nil means the request has already been answered
// (503/429) and holds no slot.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func()) {
	_, adm := span.StartChild(r.Context(), "admission",
		span.Int("max_inflight", s.cfg.MaxInflight))
	defer adm.End()
	if s.draining.Load() {
		adm.SetAttr("outcome", "shed-draining")
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		s.inflight.Add(1)
		adm.SetAttr("outcome", "admitted")
		return func() {
			<-s.slots
			s.inflight.Add(-1)
		}
	default:
		adm.SetAttr("outcome", "shed-inflight")
		s.shed(w, http.StatusTooManyRequests, "inflight-cap")
		return nil
	}
}

// solveRunner owns the solver side of one request: it checks the
// prepared solver of each cache-miss leader solve out of the server's
// core.PreparedSet (preparing one when none is idle) bound to the
// request's context and trace hook, and returns it after the solve. Each
// solve is traced through one span.FixpointTrace. Leaders run
// sequentially per request (singleflight calls fn synchronously), so one
// bridge serves every solve of the request.
type solveRunner struct {
	// modelAttr is the model attribute of every solve span, built once
	// per request rather than once per solve.
	modelAttr span.Attr
	model     string
	opts      core.Options
	prepared  *core.PreparedSet
	fp        *span.FixpointTrace
}

// newSolveRunner builds a runner whose solves are cancelled by ctx and
// check their solvers out of prepared.
func newSolveRunner(ctx context.Context, prepared *core.PreparedSet, model string, opts core.Options) *solveRunner {
	fp := span.NewFixpointTrace()
	opts.FixPoint.Ctx = ctx
	opts.FixPoint.Trace = fp.Hook()
	return &solveRunner{modelAttr: span.String("model", model), model: model, opts: opts, prepared: prepared, fp: fp}
}

// solve runs one cache-miss solve as the singleflight leader: preparation
// (when the pool holds no idle solver of the shape) and the fixed-point
// iteration become child spans, and each substitution round an event on
// the fixpoint span. A cold prepared solve is bit-identical to a one-shot
// core.Solve, whichever request prepared the solver — tracing observes
// the iteration, it never alters it.
func (r *solveRunner) solve(ctx context.Context, spec core.Spec) (*core.SolveResult, error) {
	ctx, sp := span.StartChild(ctx, "solve", r.modelAttr, span.Float64("lambda", spec.Lambda))
	defer sp.End()

	ps := r.prepared.Get(r.model, spec, r.opts)
	if ps == nil {
		_, prep := span.StartChild(ctx, "core.prepare")
		var err error
		ps, err = core.Prepare(r.model, spec, r.opts)
		prep.End()
		if err != nil {
			return nil, err
		}
	}

	r.fp.Start(ctx)
	res, err := ps.Solve(spec.Lambda)
	r.fp.End()
	r.prepared.Put(ps)
	if errors.Is(err, core.ErrSaturated) {
		sp.SetAttr("saturated", true)
		sp.Keep("saturated")
	}
	return res, err
}

// handleTraceGet is GET /v1/traces/{id}: return the retained span tree of
// one trace from the in-memory ring. Traces appear here once their root
// span ends (i.e. after the traced request's response), survive until
// evicted by newer traces, and only exist at all if the tail policy kept
// them.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var recs []span.Record
	// Only the canonical lowercase rendering names a retained trace.
	if tid, err := span.ParseTraceID(id); err == nil && tid.String() == id {
		recs = s.traces.Trace(tid)
	}
	if recs == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: no retained trace %q (not yet finished, dropped by the tail policy, or evicted)", id))
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: recs})
}
