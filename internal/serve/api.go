// Package serve is the latency-model service layer: a long-running HTTP
// JSON API over the analytical solvers (internal/core) and the parallel
// sweep engine (internal/experiments). Analytical models earn their keep by
// being cheap enough to query interactively and to embed in design-space
// exploration loops; this package makes the repo's models available that
// way — with a keyed solve cache, admission control so overload sheds
// rather than queues, async sweep jobs, and the khs_serve_* metric set
// exposed straight from the internal/telemetry registry.
//
// Routes (see DESIGN.md §8):
//
//	POST   /v1/solve        spec + model name  → latency decomposition
//	POST   /v1/solve:batch  many specs, one model → per-item results
//	POST   /v1/sweeps       async sweep job    → 202 + job id
//	GET    /v1/sweeps/{id}  job status, progress, per-point results
//	POST   /v1/surfaces     async surface build job → 202 + job id
//	GET    /v1/surfaces     surface inventory + shard membership
//	GET    /v1/surfaces/{id} build-job status or one surface's summary
//	GET    /v1/models       registered solver names + spec constraints
//	GET    /v1/traces/{id}  retained span tree of one trace (debug)
//	GET    /v1/version      build identity (module version, VCS revision)
//	DELETE /v1/sweeps/{id}  cancel a running job
//	GET    /healthz         liveness (503 while draining)
//	GET    /metrics         Prometheus text exposition
//
// Every request is traced (DESIGN.md §11): the root span adopts an
// inbound W3C traceparent, handlers hang admission/cache/solve child
// spans off it, and the access log carries the trace id.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"kncube/internal/core"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry/span"
)

// SolveRequest is the POST /v1/solve body. Zero-valued spec fields keep
// the selected variant's natural defaults exactly as the core registry
// defines them; validation failures come back as structured FieldIssues.
type SolveRequest struct {
	// Model is a registry name (core.Solvers); empty selects "hotspot-2d".
	Model string `json:"model,omitempty"`
	// K, Dims, V, Lm, H, Lambda mirror core.Spec.
	K      int     `json:"k,omitempty"`
	Dims   int     `json:"dims,omitempty"`
	V      int     `json:"v,omitempty"`
	Lm     int     `json:"lm,omitempty"`
	H      float64 `json:"h,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	// Options select the blocking form, the fixed-point scheme and the
	// serving mode; the zero value is the calibrated default used by all
	// harness tooling. A field the struct does not name (the retired
	// "entrance", "variance" and "no_vc_split" among them) is a 400 on
	// "body".
	Options *SolveOptions `json:"options,omitempty"`
	// TimeoutMS bounds this solve; it is capped by the server's configured
	// per-request timeout. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SolveOptions is the JSON form of core.Options plus the serving mode.
// Empty strings select the calibrated defaults.
type SolveOptions struct {
	Blocking string `json:"blocking,omitempty"` // vc-occupancy | multi-server
	// Acceleration selects the fixed-point extrapolation scheme:
	// "anderson" (windowed Anderson mixing, the default, so "" and
	// "anderson" share one cache entry) or "none" (damped successive
	// substitution, the historical iteration bit for bit), parsed by
	// fixpoint.ParseAcceleration. Both converge to the same tolerance, the
	// damped one in more iterations and along another trajectory.
	Acceleration string `json:"acceleration,omitempty"`
	// Mode selects how the answer is produced: "exact" (the solver, today's
	// default), "surface" (interpolate from a precomputed latency surface,
	// falling back to the exact solver only near the saturation frontier or
	// outside the grid), or "auto" (interpolate when a covering surface
	// exists and its error estimate is under the server threshold, else
	// solve exactly). Mode is a serving decision, not a model knob: it never
	// enters the solve cache key, and interpolated answers bypass the cache.
	Mode string `json:"mode,omitempty"`
}

// Serving modes for SolveOptions.Mode.
const (
	ModeExact   = "exact"
	ModeSurface = "surface"
	ModeAuto    = "auto"
)

// mode resolves the serving mode ("" selects ModeExact), reporting unknown
// names as a FieldIssue.
func (o *SolveOptions) mode() (string, *FieldIssue) {
	if o == nil {
		return ModeExact, nil
	}
	switch o.Mode {
	case "", ModeExact:
		return ModeExact, nil
	case ModeSurface, ModeAuto:
		return o.Mode, nil
	}
	return "", &FieldIssue{Field: "options.mode",
		Reason: fmt.Sprintf("unknown serving mode %q (exact, surface, auto)", o.Mode)}
}

// toCore maps the JSON option names onto core.Options, reporting unknown
// names as FieldIssues so clients see which knob was wrong.
func (o *SolveOptions) toCore() (core.Options, *FieldIssue) {
	var opts core.Options
	if o == nil {
		return opts, nil
	}
	switch o.Blocking {
	case "", "vc-occupancy":
		opts.Blocking = core.BlockingVCOccupancy
	case "multi-server":
		opts.Blocking = core.BlockingMultiServer
	default:
		return opts, &FieldIssue{Field: "options.blocking",
			Reason: fmt.Sprintf("unknown blocking form %q (vc-occupancy, multi-server)", o.Blocking)}
	}
	accel, err := fixpoint.ParseAcceleration(o.Acceleration)
	if err != nil {
		return opts, &FieldIssue{Field: "options.acceleration", Reason: err.Error()}
	}
	opts.FixPoint.Acceleration = accel
	return opts, nil
}

// SolveResponse is the POST /v1/solve success body. Saturated solves are
// not errors — the model is reporting a real property of the configuration
// — so they return 200 with Saturated set and no Result.
type SolveResponse struct {
	Model string `json:"model"`
	// Cache reports how the solve was satisfied: "hit" (served from the
	// LRU), "coalesced" (attached to an identical in-flight solve), "miss"
	// (computed here), or "bypass" (interpolated from a surface — the solve
	// cache was never consulted).
	Cache     string `json:"cache"`
	Saturated bool   `json:"saturated,omitempty"`
	// Detail carries the saturation message when Saturated.
	Detail string       `json:"detail,omitempty"`
	Result *SolveResult `json:"result,omitempty"`
	// Source reports where the numbers came from: "exact" (the solver) or
	// "surface" (interpolated from a precomputed latency surface).
	Source string `json:"source,omitempty"`
	// SurfaceID and ErrorEstimate are set on surface-interpolated answers:
	// the inventory id the answer came from and its relative
	// interpolation-error estimate on the total latency.
	SurfaceID     string  `json:"surface_id,omitempty"`
	ErrorEstimate float64 `json:"error_estimate,omitempty"`
}

// SolveResult is the latency decomposition of a successful solve, mirroring
// core.SolveResult.
type SolveResult struct {
	Latency    float64 `json:"latency"`
	Regular    float64 `json:"regular"`
	Hot        float64 `json:"hot"`
	SourceWait float64 `json:"source_wait"`
	VBar       float64 `json:"vbar"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
}

// BatchSolveRequest is the POST /v1/solve:batch body: one model and option
// set applied to many specs in a single request. The whole batch occupies
// one admission slot and shares one deadline; each item interacts with the
// solve cache under exactly the key its /v1/solve equivalent would use, and
// cache misses that share a topology shape (all spec fields except lambda)
// reuse one prepared solver instance.
type BatchSolveRequest struct {
	// Model is a registry name (core.Solvers); empty selects "hotspot-2d".
	// It applies to every item — batches are per-variant, like sweeps.
	Model string `json:"model,omitempty"`
	// Options apply to every item; the zero value is the calibrated default.
	Options *SolveOptions `json:"options,omitempty"`
	// TimeoutMS bounds the whole batch (capped by the server's per-request
	// timeout). 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Items are the specs to solve, in order. At least one is required; at
	// most maxBatchItems are accepted.
	Items []BatchSpec `json:"items"`
}

// BatchSpec is one spec in a batch request, mirroring the spec fields of
// SolveRequest (zero fields keep the variant's natural defaults).
type BatchSpec struct {
	K      int     `json:"k,omitempty"`
	Dims   int     `json:"dims,omitempty"`
	V      int     `json:"v,omitempty"`
	Lm     int     `json:"lm,omitempty"`
	H      float64 `json:"h,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
}

// BatchSolveResponse is the POST /v1/solve:batch success body: one item per
// request spec, in request order. Per-item failures (invalid spec,
// saturation, solver error) land in their item and never fail the batch;
// only a malformed request, an unknown model, a bad option name, or the
// batch deadline fail the whole request.
type BatchSolveResponse struct {
	Model string           `json:"model"`
	Items []BatchSolveItem `json:"items"`
}

// BatchSolveItem is one spec's outcome. Status is "ok" (Result set),
// "saturated" (the model's real answer at this load — Detail explains),
// "invalid" (the spec failed validation — Fields name the bad field), or
// "error" (the solver failed, or surface mode found no surface for the
// shape — Detail then names the replica that owns it, when another one
// does). Cache mirrors SolveResponse.Cache for the statuses that reached
// the cache.
type BatchSolveItem struct {
	Status    string       `json:"status"`
	Cache     string       `json:"cache,omitempty"`
	Saturated bool         `json:"saturated,omitempty"`
	Detail    string       `json:"detail,omitempty"`
	Fields    []FieldIssue `json:"fields,omitempty"`
	Result    *SolveResult `json:"result,omitempty"`
	// Source, SurfaceID and ErrorEstimate mirror SolveResponse: per item,
	// "surface" marks an interpolated answer and names the surface it came
	// from; "exact" marks a solver answer (including mode-driven fallbacks).
	Source        string  `json:"source,omitempty"`
	SurfaceID     string  `json:"surface_id,omitempty"`
	ErrorEstimate float64 `json:"error_estimate,omitempty"`
}

// toAPIResult maps a core solve result onto the JSON result shape shared by
// /v1/solve and /v1/solve:batch.
func toAPIResult(res *core.SolveResult) *SolveResult {
	return &SolveResult{
		Latency:    res.Latency,
		Regular:    res.Regular,
		Hot:        res.Hot,
		SourceWait: res.SourceWait,
		VBar:       res.VBar,
		Iterations: res.Convergence.Iterations,
		Residual:   res.Convergence.Residual,
	}
}

// SweepRequest is the POST /v1/sweeps body: an async sweep of one figure
// panel through the parallel sweep engine.
type SweepRequest struct {
	// Panel names a figure panel (experiments.Figures), e.g. "fig1-h20".
	Panel string `json:"panel"`
	// Model is the variant to sweep; empty selects the panel default.
	Model string `json:"model,omitempty"`
	// Points truncates the panel's load axis to its first Points entries.
	// Seeds derive from (panel, point index, rep), so a truncated sweep
	// reproduces the corresponding prefix of the full panel bit-for-bit.
	Points int `json:"points,omitempty"`
	// Reps is the number of pooled simulation replications per point
	// (default 1); Jobs the sweep's worker-pool size (default server
	// -sweep-jobs).
	Reps int `json:"reps,omitempty"`
	Jobs int `json:"jobs,omitempty"`
	// Budget overrides the default simulation budget per replication.
	Budget *SweepBudget `json:"budget,omitempty"`
}

// SweepBudget is the JSON form of experiments.SimBudget. Zero fields keep
// the defaults (experiments.DefaultSimBudget), so the canonical
// results/*.csv are reproduced by an empty budget.
type SweepBudget struct {
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	MaxCycles    int64 `json:"max_cycles,omitempty"`
	MinMeasured  int64 `json:"min_measured,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
}

// SweepStatus is the job view returned by POST /v1/sweeps (202) and
// GET /v1/sweeps/{id}.
type SweepStatus struct {
	ID    string `json:"id"`
	Panel string `json:"panel"`
	Model string `json:"model"`
	// State is "running", "done", "failed" or "cancelled".
	State string `json:"state"`
	// Done and Total count simulation jobs (points × reps).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Points carries the per-point results once State is "done".
	Points []SweepPoint `json:"points,omitempty"`
	Error  string       `json:"error,omitempty"`
	// TraceID identifies the job's own trace (the job outlives its
	// originating request, so it roots a fresh trace linked back to the
	// request via link.trace_id). Fetch it at GET /v1/traces/{id} once
	// the job is terminal.
	TraceID string `json:"trace_id,omitempty"`
}

// SweepPoint is one swept load point, mirroring the columns of the
// results/*.csv files. Model is omitted when the analytical model reports
// saturation (JSON has no NaN).
type SweepPoint struct {
	Lambda         float64  `json:"lambda"`
	Model          *float64 `json:"model,omitempty"`
	ModelSaturated bool     `json:"model_saturated"`
	Sim            float64  `json:"sim"`
	SimCI          float64  `json:"sim_ci95"`
	SimSaturated   bool     `json:"sim_saturated"`
	SimMeasured    int64    `json:"sim_measured"`
}

// SurfaceRequest is the POST /v1/surfaces body: build one latency surface
// — a solved (λ, h) grid for one topology shape — as an async job. The
// grid axes must be strictly ascending; λ axes may extend past the
// saturation frontier (saturated cells are masked, not solved).
type SurfaceRequest struct {
	// Model is a registry name (core.Solvers); empty selects "hotspot-2d".
	Model string `json:"model,omitempty"`
	// K, Dims, V, Lm fix the topology shape (H and Lambda come from the
	// grid axes instead).
	K    int `json:"k,omitempty"`
	Dims int `json:"dims,omitempty"`
	V    int `json:"v,omitempty"`
	Lm   int `json:"lm,omitempty"`
	// Hs is the hot-spot-fraction axis (each in [0, 1), ascending).
	Hs []float64 `json:"hs"`
	// Lambdas is the offered-load axis (each > 0, ascending, ≥ 2 points).
	Lambdas []float64 `json:"lambdas"`
	// Options select the result-affecting model knobs baked into the
	// surface, plus the fixed-point knobs used while building. Mode is
	// meaningless here and rejected.
	Options *SolveOptions `json:"options,omitempty"`
}

// SurfaceStatus is the build-job view returned by POST /v1/surfaces (202)
// and GET /v1/surfaces/{id} for build-job ids.
type SurfaceStatus struct {
	ID string `json:"id"`
	// Key is the surface shape key (model|k|dims|v|lm|options) the shard
	// ring assigns ownership by.
	Key   string `json:"key"`
	Model string `json:"model"`
	// State is "running", "done", "failed" or "cancelled".
	State string `json:"state"`
	// Done and Total count grid points solved (masked saturated cells
	// count as done — the builder skips, not solves, them).
	Done  int `json:"done"`
	Total int `json:"total"`
	// SurfaceID names the inventory entry once State is "done"; Path is
	// where it was persisted (empty without -surface-dir).
	SurfaceID string `json:"surface_id,omitempty"`
	Path      string `json:"path,omitempty"`
	Error     string `json:"error,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

// SurfaceList is the GET /v1/surfaces body: the replica's surface
// inventory plus its shard-ring membership (absent when unsharded).
type SurfaceList struct {
	Shard    *ShardInfo    `json:"shard,omitempty"`
	Surfaces []SurfaceInfo `json:"surfaces"`
}

// ShardInfo describes the consistent-hash ring this replica serves in.
type ShardInfo struct {
	Self  string   `json:"self"`
	Nodes []string `json:"nodes"`
}

// SurfaceInfo summarizes one stored surface.
type SurfaceInfo struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	Model string `json:"model"`
	// HMin..HMax and LambdaMin..LambdaMax are the grid's query coverage.
	HMin      float64 `json:"h_min"`
	HMax      float64 `json:"h_max"`
	LambdaMin float64 `json:"lambda_min"`
	LambdaMax float64 `json:"lambda_max"`
	// Points is the grid size; Saturated counts cells beyond the
	// saturation frontier (masked, answered by exact-solve fallback).
	Points    int    `json:"points"`
	Saturated int    `json:"saturated"`
	Path      string `json:"path,omitempty"`
}

// ModelsResponse is the GET /v1/models body: every registered solver with
// its spec constraints, so clients can discover what a solve or surface
// request may reference.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// ModelInfo is one registered solver variant. Constraints are harvested
// from the variant's own validation metadata (core.Constraints).
type ModelInfo struct {
	Name        string            `json:"name"`
	Constraints []core.Constraint `json:"constraints"`
}

// FieldIssue is one structured validation failure: the request field at
// fault and the reason it was rejected.
type FieldIssue struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error  string       `json:"error"`
	Fields []FieldIssue `json:"fields,omitempty"`
}

// TraceResponse is the body of GET /v1/traces/{id}: the retained span
// tree of one trace, in span-end order (root last).
type TraceResponse struct {
	TraceID string        `json:"trace_id"`
	Spans   []span.Record `json:"spans"`
}

// VersionResponse is the body of GET /v1/version and the label set of the
// khs_serve_build_info gauge.
type VersionResponse struct {
	// Version is the main module version ("(devel)" for local builds).
	Version string `json:"version"`
	// Revision and VCSTime identify the VCS commit the binary was built
	// from; empty when the build carried no VCS stamp (tests, go run).
	Revision string `json:"revision,omitempty"`
	VCSTime  string `json:"vcs_time,omitempty"`
	// Modified marks a build from a dirty working tree.
	Modified  bool   `json:"modified,omitempty"`
	GoVersion string `json:"go_version"`
}

// writeJSON writes v, compact and newline-terminated, with the given
// status; encoding failures are beyond recovery once the header is out,
// so they are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a structured error response. When err (or any error it
// wraps) is a core.FieldError the response carries the (field, reason)
// pair, so bad specs surface as actionable 400s rather than opaque 500s.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Fields: fieldIssues(err)})
}

// fieldIssues extracts the structured (field, reason) pair err carries when
// it wraps a core.FieldError; nil otherwise.
func fieldIssues(err error) []FieldIssue {
	var fe *core.FieldError
	if errors.As(err, &fe) {
		return []FieldIssue{{Field: fe.Field, Reason: fe.Reason}}
	}
	return nil
}

// writeFieldIssues writes a 400 carrying explicit issues (used where the
// failure never reaches core, e.g. unknown option names).
func writeFieldIssues(w http.ResponseWriter, issues ...FieldIssue) {
	resp := ErrorResponse{Error: "invalid request"}
	if len(issues) > 0 {
		resp.Error = issues[0].Reason
		resp.Fields = issues
	}
	writeJSON(w, http.StatusBadRequest, resp)
}
