package core

import (
	"errors"
	"fmt"

	"kncube/internal/fixpoint"
)

// Prepared solves and the batch driver. A PreparedSolver is a validated,
// Prepare()d solver instance plus a reusable state buffer and fixed-point
// workspace: re-solving it for a new offered load costs only SetLambda (a
// rate recomputation), the iteration itself and the result, skipping the
// topology/layout construction and the scratch allocation that Solve pays
// per call. SolveBatch runs many specs of one variant through a
// PreparedSet, prepared solvers keyed by topology shape — exactly the load
// profile of sweeps, surface builds, and batch requests.

// PreparedSolver is a reusable solver instance: validated and prepared
// once, re-solvable for many offered loads. It is not safe for concurrent
// use — the state buffer and the workspace are shared across solves.
type PreparedSolver struct {
	name string
	s    Solver
	o    Options
	x    []float64
	// ws is the fixed-point scratch every solve of this shape reuses; the
	// first solve grows it, and each solve resets what it carries over.
	ws   fixpoint.Workspace
	warm bool // previous solve converged; its state seeds SolveWarm
}

// Prepare validates and prepares the named variant once, returning a
// solver that can be re-solved for many offered loads without repeating
// the spec-invariant setup.
func Prepare(name string, s Spec, o Options) (*PreparedSolver, error) {
	sol, err := NewSolver(name, s, o)
	if err != nil {
		return nil, err
	}
	if err := sol.Validate(); err != nil {
		return nil, err
	}
	sol.Prepare()
	return &PreparedSolver{name: name, s: sol, o: o, x: make([]float64, sol.StateSize())}, nil
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
	ps.s.SetLambda(lambda)
	if err := ps.s.Validate(); err != nil {
		return nil, err
	}
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

// footprint is the most float64 values the solver holds between solves:
// its state vector and its fixed-point workspace once a solve has grown
// it. The model's own round scratch, sized by Prepare, is of the order of
// the state again and not counted.
func (ps *PreparedSolver) footprint() int {
	return len(ps.x) + fixpoint.WorkspaceSize(len(ps.x), ps.o.FixPoint)
}

// PreparedSet holds the prepared solvers of one variant keyed by topology
// shape (every Spec field but Lambda), so the specs that share a shape
// share one preparation. It is bounded by footprint: when preparing a
// shape would take the summed state and workspace variables of the solvers
// held past maxStateSize, the set first drops every solver it holds, so a
// batch of many large distinct shapes never pins them all. An Anderson
// workspace, the default, is the larger share: 17 state-sized vectors and
// 55 floats of normal equations, so a solver counts 18 times its state.
// A PreparedSet is not safe for concurrent use.
type PreparedSet struct {
	name string
	o    Options
	held map[Spec]*PreparedSolver
	size int // summed footprint of the solvers held
}

// NewPreparedSet returns an empty set preparing the named variant with o.
func NewPreparedSet(name string, o Options) *PreparedSet {
	return &PreparedSet{name: name, o: o, held: map[Spec]*PreparedSolver{}}
}

// Lookup returns the prepared solver held for s's shape, or nil.
func (p *PreparedSet) Lookup(s Spec) *PreparedSolver {
	s.Lambda = 0
	return p.held[s]
}

// Prepare prepares s's shape and adds it to the set. A failed preparation
// is not held: like independent Solve calls, each bad spec reports its own
// error.
func (p *PreparedSet) Prepare(s Spec) (*PreparedSolver, error) {
	ps, err := Prepare(p.name, s, p.o)
	if err != nil {
		return nil, err
	}
	size := ps.footprint()
	if p.size+size > maxStateSize {
		clear(p.held)
		p.size = 0
	}
	s.Lambda = 0
	p.held[s] = ps
	p.size += size
	return ps, nil
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
	prepared := NewPreparedSet(name, o.Options)
	for i, sp := range specs {
		ps := prepared.Lookup(sp)
		if ps == nil {
			var err error
			ps, err = prepared.Prepare(sp)
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
	}
	return items, nil
}
