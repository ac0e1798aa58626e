package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"kncube/internal/core"
	"kncube/internal/surface"
	"kncube/internal/telemetry/span"
)

// maxSurfaceCells bounds one surface build request's grid. A build solves
// every unmasked cell; an unbounded grid would let one request occupy a
// job slot for hours.
const maxSurfaceCells = 16384

// LoadSurfaces loads every surface persisted under cfg.SurfaceDir into
// the serving inventory, returning how many were loaded. Without a
// configured directory it is a no-op. A corrupt or unreadable file fails
// the whole load — a replica must not silently serve a partial inventory.
func (s *Server) LoadSurfaces() (int, error) {
	if s.cfg.SurfaceDir == "" {
		return 0, nil
	}
	entries, err := s.surfaces.LoadDir(s.cfg.SurfaceDir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		s.log.Info("surface loaded", "surface_id", e.ID, "key", e.Surface.Def.Key(), "path", e.Path)
	}
	return len(entries), nil
}

// fallbackReason classifies a lookup refusal for span attributes, keeping
// attribute cardinality to the three structured causes.
func fallbackReason(err error) string {
	switch {
	case errors.Is(err, surface.ErrNoSurface):
		return "no-surface"
	case errors.Is(err, surface.ErrNearSaturation):
		return "saturation"
	case errors.Is(err, surface.ErrEstimateTooHigh):
		return "estimate"
	default:
		return "range"
	}
}

// handleSurfaceCreate is POST /v1/surfaces: validate the definition,
// check shard ownership, and launch the grid build as an async job. On
// completion the surface enters the inventory (and SurfaceDir, when
// configured); the 202 body carries the job id to poll.
func (s *Server) handleSurfaceCreate(w http.ResponseWriter, r *http.Request) {
	var req SurfaceRequest
	if err := decodeStrict(r, &req); err != nil {
		writeFieldIssues(w, FieldIssue{Field: "body", Reason: err.Error()})
		return
	}
	model, issue := checkModel(req.Model)
	if issue != nil {
		writeFieldIssues(w, *issue)
		return
	}
	opts, issue := req.Options.toCore()
	if issue != nil {
		writeFieldIssues(w, *issue)
		return
	}
	if req.Options != nil && req.Options.Mode != "" {
		writeFieldIssues(w, FieldIssue{Field: "options.mode",
			Reason: "mode selects how solves are answered; it is meaningless in a surface build"})
		return
	}
	def := surface.Def{
		Model: model, K: req.K, Dims: req.Dims, V: req.V, Lm: req.Lm,
		Blocking: opts.Blocking, Hs: req.Hs, Lambdas: req.Lambdas,
	}
	if err := def.Validate(); err != nil {
		issues := fieldIssues(err) // an option the model does not take
		if issues == nil {
			issues = []FieldIssue{{Field: "grid", Reason: err.Error()}}
		}
		writeFieldIssues(w, issues...)
		return
	}
	if cells := len(req.Hs) * len(req.Lambdas); cells > maxSurfaceCells {
		writeFieldIssues(w, FieldIssue{Field: "grid",
			Reason: fmt.Sprintf("grid of %d cells exceeds the %d-cell cap", cells, maxSurfaceCells)})
		return
	}
	// The shape itself must validate before we commit a job slot to it;
	// probe it at the first grid point.
	probe := core.Spec{K: req.K, Dims: req.Dims, V: req.V, Lm: req.Lm, H: req.Hs[0], Lambda: req.Lambdas[0]}
	if err := core.ValidateSpec(model, probe, opts); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	key := def.Key()
	if !s.ring.Owns(key) {
		writeError(w, http.StatusMisdirectedRequest,
			fmt.Errorf("serve: shape %s is owned by replica %q, not %q", key, s.ring.Owner(key), s.ring.Self()))
		return
	}

	if s.draining.Load() {
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	rs := span.FromContext(r.Context())
	link := span.Parent{TraceID: rs.TraceID(), SpanID: rs.SpanID()}
	fp := opts.FixPoint
	j := &job{kind: jobKindSurface, key: key, model: model, total: len(req.Hs) * len(req.Lambdas)}
	j, err := s.jobs.launchJob(s.baseCtx, j, link, func(ctx context.Context, j *job) error {
		bo := surface.BuildOptions{
			FixPoint: fp,
			Progress: func(done, total int) {
				j.mu.Lock()
				j.done, j.total = done, total
				j.mu.Unlock()
			},
		}
		bo.FixPoint.Ctx = ctx
		start := time.Now()
		sfc, err := surface.Build(def, bo)
		s.surfaces.ObserveBuild(time.Since(start), err)
		if err != nil {
			return err
		}
		path := ""
		if s.cfg.SurfaceDir != "" {
			if path, err = surface.WriteFile(s.cfg.SurfaceDir, sfc); err != nil {
				return err
			}
		}
		e := s.surfaces.Add(sfc, path)
		j.mu.Lock()
		j.surfaceID, j.path = e.ID, path
		j.mu.Unlock()
		return nil
	})
	switch {
	case errors.Is(err, errTooManyJobs):
		s.shed(w, http.StatusTooManyRequests, "surface-cap")
		return
	case errors.Is(err, errDraining):
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/surfaces/"+j.id)
	writeJSON(w, http.StatusAccepted, j.surfaceStatus())
}

// handleSurfaceList is GET /v1/surfaces: the replica's inventory plus its
// shard membership (when sharded), so clients can route builds.
func (s *Server) handleSurfaceList(w http.ResponseWriter, r *http.Request) {
	resp := SurfaceList{Surfaces: []SurfaceInfo{}}
	if s.cfg.ShardID != "" {
		resp.Shard = &ShardInfo{Self: s.ring.Self(), Nodes: s.ring.Nodes()}
	}
	for _, e := range s.surfaces.List() {
		resp.Surfaces = append(resp.Surfaces, surfaceInfo(e))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSurfaceGet is GET /v1/surfaces/{id}: a build-job id ("build-…")
// returns the job view; an inventory id ("surface-…") returns the stored
// surface's summary.
func (s *Server) handleSurfaceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.jobs.get(id); ok && j.kind == jobKindSurface {
		writeJSON(w, http.StatusOK, j.surfaceStatus())
		return
	}
	if e := s.surfaces.Get(id); e != nil {
		writeJSON(w, http.StatusOK, surfaceInfo(e))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown surface or build job %q", id))
}

// surfaceInfo summarizes a stored surface for the API.
func surfaceInfo(e *surface.Entry) SurfaceInfo {
	d := e.Surface.Def
	total, saturated := e.Surface.Points()
	return SurfaceInfo{
		ID:        e.ID,
		Key:       d.Key(),
		Model:     d.Model,
		HMin:      d.Hs[0],
		HMax:      d.Hs[len(d.Hs)-1],
		LambdaMin: d.Lambdas[0],
		LambdaMax: d.Lambdas[len(d.Lambdas)-1],
		Points:    total,
		Saturated: saturated,
		Path:      e.Path,
	}
}

// handleModels is GET /v1/models: every registered solver variant with
// the spec constraints its own validation enforces, discovered from the
// registry (core.Constraints).
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := ModelsResponse{}
	for _, name := range core.Solvers() {
		cons, err := core.Constraints(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		resp.Models = append(resp.Models, ModelInfo{Name: name, Constraints: cons})
	}
	writeJSON(w, http.StatusOK, resp)
}
