package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"

	"kncube/internal/fixpoint"
)

// Prepared solves and the batch driver. A PreparedSolver is a validated,
// Prepare()d solver instance plus a reusable state buffer and fixed-point
// workspace: re-solving it for a new offered load costs only SetLambda (a
// rate recomputation), the iteration itself and the result, skipping the
// topology/layout construction and the scratch allocation that Solve pays
// per call. A PreparedSet pools idle prepared solvers, keyed by model,
// topology shape and options and bounded by the bytes they hold, so
// callers that meet a shape again — the items of a batch, the requests of
// a server — reuse its preparation and its grown workspace. SolveBatch
// runs many specs of one variant through one.

// PreparedSolver is a reusable solver instance: validated and prepared
// once, re-solvable for many offered loads. It is not safe for concurrent
// use — the state buffer and the workspace are shared across solves.
type PreparedSolver struct {
	name  string
	s     Solver
	rules Rules // the variant's, rechecked with each solve's load
	o     Options
	x     []float64
	// ws is the fixed-point scratch every solve of this shape reuses; the
	// first solve grows it, and each solve resets what it carries over.
	ws   fixpoint.Workspace
	warm bool // previous solve converged; its state seeds SolveWarm

	// key is what a PreparedSet files the solver under, and modelBytes
	// what the model's own prepared buffers and struct hold.
	key        poolKey
	modelBytes int
}

// Prepare validates and prepares the named variant once, returning a
// solver that can be re-solved for many offered loads without repeating
// the spec-invariant setup.
func Prepare(name string, s Spec, o Options) (*PreparedSolver, error) {
	v, err := lookup(name)
	if err != nil {
		return nil, err
	}
	sol, err := v.solver(s, o)
	if err != nil {
		return nil, err
	}
	sol.Prepare()
	ps := &PreparedSolver{name: name, s: sol, rules: v.rules, o: o, x: make([]float64, sol.StateSize()),
		key: keyOf(name, v.canonical(s), o)}
	if t := reflect.TypeOf(sol); t.Kind() == reflect.Pointer {
		ps.modelBytes = int(t.Elem().Size())
	}
	if h, ok := sol.(heldSizer); ok {
		ps.modelBytes += h.held()
	}
	return ps, nil
}

// Name returns the registry name the solver was prepared for.
func (ps *PreparedSolver) Name() string { return ps.name }

// Solve re-solves the prepared model at the given offered load from the
// zero-load starting point. The result is bit-identical to
// Solve(name, spec, opts) with the same λ.
func (ps *PreparedSolver) Solve(lambda float64) (*SolveResult, error) {
	return ps.solve(lambda, false)
}

// SolveWarm re-solves at a new offered load, seeding the iteration from
// the previous converged state when one is available (falling back to the
// zero-load start otherwise). Nearby loads then converge in far fewer
// rounds, but the iteration follows a different path than a cold solve:
// results agree with Solve only to within the convergence tolerance, not
// bit-for-bit.
func (ps *PreparedSolver) SolveWarm(lambda float64) (*SolveResult, error) {
	return ps.solve(lambda, true)
}

func (ps *PreparedSolver) solve(lambda float64, warm bool) (*SolveResult, error) {
	if err := ps.rules(ps.key.spec(lambda)); err != nil {
		return nil, err
	}
	ps.s.SetLambda(lambda)
	if !warm || !ps.warm {
		ps.s.InitState(ps.x)
	}
	res, err := finishSolve(ps.s, ps.x, ps.o, &ps.ws)
	// A failed iteration (saturation, cancellation) leaves the buffer
	// mid-flight or non-finite; only a converged state may seed the next
	// warm solve.
	ps.warm = err == nil
	return res, err
}

// footprint is the bytes the solver holds between solves: its state
// vector, its fixed-point workspace as far as solves have grown it, and
// the model's prepared scratch, each buffer counted by its capacity, plus
// the solver's and the model's own structs.
func (ps *PreparedSolver) footprint() int {
	return preparedSolverBytes + 8*(cap(ps.x)+ps.ws.Size()) + ps.modelBytes
}

var preparedSolverBytes = int(reflect.TypeFor[PreparedSolver]().Size())

// heldSizer is a model whose Prepare allocates buffers of its own: held
// returns the bytes they hold, every slice counted by its capacity.
type heldSizer interface{ held() int }

// bytesOf is the bytes the backing array of s holds.
func bytesOf[T any](s []T) int { return cap(s) * int(reflect.TypeFor[T]().Size()) }

// bytesOf2 is the bytes a slice of slices holds: its headers and its rows.
func bytesOf2[T any](s [][]T) int {
	n := bytesOf(s)
	for _, r := range s {
		n += bytesOf(r)
	}
	return n
}

// poolKey is what makes two prepared solvers interchangeable: the model,
// the canonical topology shape (every Spec field but Lambda) and the
// solver options apart from the per-solve hooks FixPoint.Ctx and
// FixPoint.Trace. Floats are keyed by their bits, so a solver only ever
// serves the exact settings it was prepared with.
type poolKey struct {
	name           string
	k, dims, v, lm int
	h              uint64
	blocking       BlockingForm
	tolerance      uint64
	maxIterations  int
	damping        uint64
	acceleration   fixpoint.Acceleration
}

// keyOf files a canonical spec s of the named model, prepared with o.
func keyOf(name string, s Spec, o Options) poolKey {
	fp := o.FixPoint
	return poolKey{name: name, k: s.K, dims: s.Dims, v: s.V, lm: s.Lm, h: math.Float64bits(s.H),
		blocking: o.Blocking, tolerance: math.Float64bits(fp.Tolerance), maxIterations: fp.MaxIterations,
		damping: math.Float64bits(fp.Damping), acceleration: fp.Acceleration}
}

// spec is the canonical spec k files, at offered load lambda.
func (k poolKey) spec(lambda float64) Spec {
	return Spec{K: k.k, Dims: k.dims, V: k.v, Lm: k.lm, H: math.Float64frombits(k.h), Lambda: lambda}
}

// maxIdleBytes bounds the bytes the idle solvers of one PreparedSet hold,
// counted by PreparedSolver.footprint: two Anderson hotspot-2d solvers of
// K ≈ 300 (about 16 MB each once solved) fit with room to spare.
// maxIdleSolvers bounds their number, so traffic whose shapes never
// repeat keeps at most that many small solvers (a K = 16 torus holds
// about 65 kB) rather than filling the byte bound with them.
const (
	maxIdleBytes   = 64 << 20
	maxIdleSolvers = 32
)

// PreparedSet is a bounded pool of idle prepared solvers, safe for
// concurrent use: Get checks one out, Put returns it. Solvers are filed by
// model, topology shape and options (see poolKey); the per-solve hooks
// are bound on Get and cleared on Put, so an idle solver holds no
// caller's context or trace. A checked-out solver belongs to its caller
// alone until returned. The idle solvers never number more than
// maxIdleSolvers nor hold more than maxIdleBytes: Put evicts the least
// recently returned until they fit, and drops a solver that cannot fit on
// its own.
type PreparedSet struct {
	mu    sync.Mutex
	idle  []*PreparedSolver // in return order, the oldest first
	bytes int               // the summed footprint of idle (a solver's does not change while idle)
}

// NewPreparedSet returns an empty pool.
func NewPreparedSet() *PreparedSet { return &PreparedSet{} }

// Get checks out the most recently returned idle solver prepared for the
// named model, s's canonical shape and o, bound to o's hooks; nil when
// none is idle (the caller then Prepares one). An unknown model is never
// held.
func (p *PreparedSet) Get(name string, s Spec, o Options) *PreparedSolver {
	v, err := lookup(name)
	if err != nil {
		return nil
	}
	key := keyOf(name, v.canonical(s), o)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if ps := p.idle[i]; ps.key == key {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.bytes -= ps.footprint()
			ps.o = o
			return ps
		}
	}
	return nil
}

// Put returns a checked-out solver to the pool, its hooks cleared, and
// evicts the least recently returned solvers while the idle ones number
// more than maxIdleSolvers or hold more than maxIdleBytes. The solver
// must not be used after Put.
func (p *PreparedSet) Put(ps *PreparedSolver) {
	ps.o.FixPoint.Ctx, ps.o.FixPoint.Trace = nil, nil
	bytes := ps.footprint()
	if bytes > maxIdleBytes {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.idle = append(p.idle, ps)
	p.bytes += bytes
	for len(p.idle) > maxIdleSolvers || p.bytes > maxIdleBytes {
		p.bytes -= p.idle[0].footprint()
		p.idle = slices.Delete(p.idle, 0, 1)
	}
}

// IdleBytes reports the summed footprint of the idle solvers.
func (p *PreparedSet) IdleBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// BatchOptions configure SolveBatch.
type BatchOptions struct {
	Options
	// WarmStart seeds each solve from the previous converged solve of the
	// same topology shape when only λ changed. Off by default: cold-started
	// batch items are bit-identical to independent Solve calls; warm starts
	// converge faster but agree with cold results only to within the solve
	// tolerance (see PreparedSolver.SolveWarm).
	WarmStart bool
}

// BatchItem is one spec's outcome in a SolveBatch: exactly one of Result
// and Err is set.
type BatchItem struct {
	Result *SolveResult
	Err    error
}

// SolveLambdas solves one topology shape across an ascending grid of
// offered loads — the access pattern of latency-surface builds. The shape
// (every Spec field but Lambda) is validated and prepared once;
// shape.Lambda is ignored. Items map 1:1 onto lambdas, in order. A shape
// that fails validation fails the call (there is nothing per-item about
// it); per-load failures land in their item like SolveBatch.
//
// Each load is warm-started from the previous converged one
// (PreparedSolver.SolveWarm), so its answer agrees with an independent
// Solve only to within the solve tolerance. Every load beyond the first
// saturated one is marked saturated without being solved: the models'
// latency is monotone in the offered load, so once a λ saturates every
// larger λ of the shape saturates too, and skipping them avoids paying the
// full iteration budget — the most expensive failure — once per point
// beyond the frontier. The skipped items' Err wraps ErrSaturated like a
// solved saturation would.
func SolveLambdas(name string, shape Spec, lambdas []float64, o Options) ([]BatchItem, error) {
	if len(lambdas) == 0 {
		return nil, fieldErrf("lambda", "core: SolveLambdas needs at least one load")
	}
	for i := 1; i < len(lambdas); i++ {
		if !(lambdas[i] > lambdas[i-1]) {
			return nil, fieldErrf("lambda", "core: SolveLambdas loads must be strictly ascending (index %d: %v after %v)",
				i, lambdas[i], lambdas[i-1])
		}
	}
	shape.Lambda = lambdas[0]
	ps, err := Prepare(name, shape, o)
	if err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(lambdas))
	for i, lam := range lambdas {
		items[i].Result, items[i].Err = ps.SolveWarm(lam)
		if errors.Is(items[i].Err, ErrSaturated) {
			for j := i + 1; j < len(lambdas); j++ {
				items[j].Err = fmt.Errorf("%w: beyond the saturation frontier (lambda %v saturated)",
					ErrSaturated, lam)
			}
			break
		}
	}
	return items, nil
}

// SolveBatch solves many specs of one model variant, validating and
// preparing once per distinct topology shape (all Spec fields except
// Lambda) and reusing that preparation across the specs that share it;
// a shape the PreparedSet bound dropped is prepared again when it comes
// back. Items are solved in input order; per-spec failures (validation,
// saturation, cancellation) land in the item's Err and the batch
// continues. Only an unknown model name fails the whole batch.
func SolveBatch(name string, specs []Spec, o BatchOptions) ([]BatchItem, error) {
	if _, err := lookup(name); err != nil {
		return nil, err
	}
	items := make([]BatchItem, len(specs))
	prepared := NewPreparedSet()
	for i, sp := range specs {
		ps := prepared.Get(name, sp, o.Options)
		if ps == nil {
			var err error
			ps, err = Prepare(name, sp, o.Options)
			if err != nil {
				// A per-spec failure (bad shape or bad λ): record it and move
				// on.
				items[i].Err = err
				continue
			}
		}
		if o.WarmStart {
			items[i].Result, items[i].Err = ps.SolveWarm(sp.Lambda)
		} else {
			items[i].Result, items[i].Err = ps.Solve(sp.Lambda)
		}
		prepared.Put(ps)
	}
	return items, nil
}
