package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"kncube/internal/experiments"
	"kncube/internal/telemetry"
	"kncube/internal/telemetry/span"
)

// Job states. A job is terminal in every state but JobRunning.
const (
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job kinds. The store hosts both async job families behind one cap and
// one retention policy; kind routes ids, metrics, and API views.
const (
	jobKindSweep   = "sweep"
	jobKindSurface = "surface"
)

var (
	// errTooManyJobs sheds submissions beyond the active-job cap (shared
	// by sweeps and surface builds).
	errTooManyJobs = errors.New("serve: active async job limit reached")
	// errDraining rejects work while the server shuts down.
	errDraining = errors.New("serve: server is draining")
)

// job is one async unit of work — a sweep or a surface build: identity,
// live progress, and — once terminal — the results or the failure. All
// mutable fields are guarded by mu; finished closes exactly once, after
// the job goroutine has recorded the terminal state and its metrics.
type job struct {
	id    string
	kind  string
	panel string // sweep jobs: the figure panel id
	key   string // surface jobs: the shape key being built
	model string

	cancel   context.CancelFunc
	finished chan struct{}

	mu        sync.Mutex
	state     string
	done      int
	total     int
	points    []SweepPoint
	surfaceID string // surface jobs: inventory id once done
	path      string // surface jobs: persistence path, when persisted
	errMsg    string
	traceID   string
}

// status snapshots a sweep job for the API.
func (j *job) status() SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		ID: j.id, Panel: j.panel, Model: j.model,
		State: j.state, Done: j.done, Total: j.total,
		Error: j.errMsg, TraceID: j.traceID,
	}
	if j.state == JobDone {
		st.Points = j.points
	}
	return st
}

// surfaceStatus snapshots a surface-build job for the API.
func (j *job) surfaceStatus() SurfaceStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return SurfaceStatus{
		ID: j.id, Key: j.key, Model: j.model,
		State: j.state, Done: j.done, Total: j.total,
		SurfaceID: j.surfaceID, Path: j.path,
		Error: j.errMsg, TraceID: j.traceID,
	}
}

// jobStore owns every async job: launch, lookup, cancellation, and the
// graceful-shutdown drain. Terminal jobs are retained (bounded by
// maxStored, oldest-first pruning) so clients can fetch results after
// completion.
type jobStore struct {
	maxActive int
	maxStored int

	mu       sync.Mutex
	seq      int
	jobs     map[string]*job
	order    []string // insertion order, for pruning
	active   map[string]int
	draining bool
	wg       sync.WaitGroup

	jobsTotal  func(kind, state string) *telemetry.Counter
	activeJobs func(kind string) *telemetry.Gauge
	tracer     *span.Tracer
	log        *slog.Logger
}

func newJobStore(maxActive, maxStored int, reg *telemetry.Registry, tracer *span.Tracer, log *slog.Logger) *jobStore {
	st := &jobStore{
		maxActive: maxActive,
		maxStored: maxStored,
		jobs:      make(map[string]*job),
		active:    make(map[string]int),
		tracer:    tracer,
		log:       log,
	}
	st.jobsTotal = func(kind, state string) *telemetry.Counter {
		if kind == jobKindSurface {
			return reg.Counter("khs_serve_surface_jobs_total",
				"surface build jobs by terminal state", telemetry.Labels{"state": state})
		}
		return reg.Counter("khs_serve_sweep_jobs_total",
			"sweep jobs by terminal state", telemetry.Labels{"state": state})
	}
	st.activeJobs = func(kind string) *telemetry.Gauge {
		if kind == jobKindSurface {
			return reg.Gauge("khs_serve_active_surfaces", "surface build jobs currently running", nil)
		}
		return reg.Gauge("khs_serve_active_sweeps", "sweep jobs currently running", nil)
	}
	return st
}

// idPrefix separates each kind's id namespace. Surface build jobs use
// "build-" so their ids never collide with the surface inventory's
// "surface-" ids in the shared GET /v1/surfaces/{id} route.
func idPrefix(kind string) string {
	if kind == jobKindSurface {
		return "build"
	}
	return "sweep"
}

// launch starts sw over panels as a new sweep job under parent (the
// server's lifetime context; per-job cancellation is layered on top). It
// fails fast with errTooManyJobs or errDraining instead of queueing. link
// ties the job's fresh trace back to the originating request's span.
func (st *jobStore) launch(parent context.Context, sw experiments.Sweep, panels []experiments.Panel, model string, link span.Parent) (*job, error) {
	reps := sw.Reps
	if reps <= 0 {
		reps = 1
	}
	total := 0
	for _, p := range panels {
		total += len(p.Lambdas) * reps
	}
	j := &job{kind: jobKindSweep, panel: panels[0].ID, model: model, total: total}
	return st.launchJob(parent, j, link, func(ctx context.Context, j *job) error {
		sw.Progress = func(p experiments.SweepProgress) {
			j.mu.Lock()
			j.done = p.Done
			j.total = p.Total
			j.mu.Unlock()
		}
		res, err := sw.RunPanels(ctx, panels)
		if err != nil {
			return err
		}
		j.mu.Lock()
		for _, pr := range res {
			j.points = append(j.points, toSweepPoints(pr.Points)...)
		}
		j.mu.Unlock()
		return nil
	})
}

// launchJob registers j (its kind, labels and total already set), roots
// the job's own linked trace, and runs run on a fresh goroutine under a
// cancellable child of parent. run's error decides the terminal state:
// nil → done, a cancellation error with the job context cancelled →
// cancelled, anything else → failed. Every job outlives its originating
// request, so it roots a fresh trace carrying a link back to the request
// span; spans the work starts nest under it.
func (st *jobStore) launchJob(parent context.Context, j *job, link span.Parent, run func(ctx context.Context, j *job) error) (*job, error) {
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		return nil, errDraining
	}
	totalActive := 0
	for _, n := range st.active {
		totalActive += n
	}
	if totalActive >= st.maxActive {
		st.mu.Unlock()
		return nil, errTooManyJobs
	}
	st.seq++
	ctx, cancel := context.WithCancel(parent)
	j.id = fmt.Sprintf("%s-%06d", idPrefix(j.kind), st.seq)
	j.cancel = cancel
	j.finished = make(chan struct{})
	j.state = JobRunning
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.active[j.kind]++
	st.activeJobs(j.kind).Set(float64(st.active[j.kind]))
	st.wg.Add(1)
	st.mu.Unlock()

	// The subject attribute is the kind-specific identity: the swept
	// panel, or the surface shape key being built.
	subject := j.panel
	subjectKey := "panel"
	if j.kind == jobKindSurface {
		subject, subjectKey = j.key, "key"
	}
	jctx, jspan := st.tracer.StartLinked(ctx, j.kind+".job", link,
		span.String(j.kind+"_id", j.id),
		span.String(subjectKey, subject),
		span.String("model", j.model))
	j.mu.Lock()
	j.traceID = jspan.TraceID().String()
	total := j.total
	j.mu.Unlock()
	st.log.Info(j.kind+" job started",
		j.kind+"_id", j.id, subjectKey, subject, "model", j.model, "total", total,
		"trace_id", jspan.TraceID().String(), "span_id", jspan.SpanID().String())

	go func() {
		defer st.wg.Done()
		err := run(jctx, j)
		j.mu.Lock()
		switch {
		case err == nil:
			j.state = JobDone
			j.done = j.total
		case isCancellation(err) && ctx.Err() != nil:
			j.state = JobCancelled
			j.errMsg = err.Error()
		default:
			j.state = JobFailed
			j.errMsg = err.Error()
		}
		state := j.state
		j.mu.Unlock()
		cancel()

		jspan.SetAttr("state", state)
		if state == JobFailed {
			jspan.Keep("job-failed")
		}
		jspan.End()
		st.log.Info(j.kind+" job finished",
			j.kind+"_id", j.id, subjectKey, subject, "model", j.model, "state", state,
			"trace_id", jspan.TraceID().String(), "span_id", jspan.SpanID().String())

		// Account for the job before signalling, so that a waiter on
		// finished reads the counter and gauge already updated.
		st.mu.Lock()
		st.active[j.kind]--
		st.activeJobs(j.kind).Set(float64(st.active[j.kind]))
		st.prune()
		st.mu.Unlock()
		st.jobsTotal(j.kind, state).Inc()
		close(j.finished)
	}()
	return j, nil
}

// get returns the job by id.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// prune drops the oldest terminal jobs beyond maxStored. Called under
// st.mu.
func (st *jobStore) prune() {
	for len(st.order) > st.maxStored {
		pruned := false
		for i, id := range st.order {
			j := st.jobs[id]
			j.mu.Lock()
			terminal := j.state != JobRunning
			j.mu.Unlock()
			if terminal {
				delete(st.jobs, id)
				st.order = append(st.order[:i], st.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // every stored job is still running; nothing to drop
		}
	}
}

// drain stops accepting jobs and waits for the running ones. If ctx
// expires first, all remaining jobs are cancelled and waited for (their
// workers exit promptly on context cancellation).
func (st *jobStore) drain(ctx context.Context) error {
	st.mu.Lock()
	st.draining = true
	st.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}

	st.mu.Lock()
	for _, j := range st.jobs {
		j.cancel()
	}
	st.mu.Unlock()
	<-finished
	return fmt.Errorf("serve: drain cut short, running sweeps cancelled: %w", ctx.Err())
}

// toSweepPoints converts engine points into their JSON form (NaN-free:
// a saturated model value becomes an absent field).
func toSweepPoints(pts []experiments.Point) []SweepPoint {
	out := make([]SweepPoint, 0, len(pts))
	for _, pt := range pts {
		sp := SweepPoint{
			Lambda:         pt.Lambda,
			ModelSaturated: pt.ModelSaturated,
			Sim:            pt.Sim,
			SimCI:          pt.SimCI,
			SimSaturated:   pt.SimSaturated,
			SimMeasured:    pt.SimMeasured,
		}
		if !pt.ModelSaturated {
			m := pt.Model
			sp.Model = &m
		}
		out = append(out, sp)
	}
	return out
}
