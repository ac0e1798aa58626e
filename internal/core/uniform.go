package core

import (
	"errors"
	"fmt"

	"kncube/internal/queueing"
	"kncube/internal/stats"
	"kncube/internal/vcmodel"
)

// uniformModel is the classic uniform-traffic baseline
// (Dally-1990/Draper-Ghosh style, adapted to the unidirectional torus with
// the same blocking composition as the hot-spot model): the mean network
// latency satisfies the scalar fixed point
//
//	S = Lm + d̄ + d̄·B(λc, S)
//
// with d̄ = n(k-1)/2 the mean path length and λc = λ·k̄ the uniform
// per-channel rate; the final latency is (S + Ws)·V̄ exactly as in the
// hot-spot model's assembly. Unlike the other four variants, whose queues
// all take service as deterministic, its source queue keeps Eq. 28's
// (S−Lm)² variance (queueing.PaperWait).
type uniformModel struct {
	solverBase
	s        Spec
	prepared bool
	lc       float64 // per-channel message rate lambda·k̄
	c        channel // the channel class lc loads
	dbar     float64 // mean path length n(k-1)/2
}

func newUniformModel(s Spec, o Options) *uniformModel {
	return &uniformModel{solverBase: newSolverBase(o, s.V, s.Lm), s: s}
}

// Prepare computes the mean path length (shape-invariant) and derives the
// channel rate for the constructed load.
func (m *uniformModel) Prepare() {
	if !m.prepared {
		m.dbar = float64(m.s.Dims) * (float64(m.s.K-1) / 2)
		m.prepared = true
	}
	m.SetLambda(m.s.Lambda)
}

// SetLambda recomputes the per-channel message rate λ·k̄ and its channel
// class in place.
//
//khs:hotpath
func (m *uniformModel) SetLambda(lambda float64) {
	m.s.Lambda = lambda
	m.lc = lambda * (float64(m.s.K-1) / 2)
	m.c = m.channel(m.lc, 0)
}

// validateUniform refuses a hot-spot class, checks the uniform baseline's
// topology rules, then the shared ranges (V >= 1: one virtual channel
// suffices without a hot-spot class).
func validateUniform(s Spec) error {
	if !stats.IsZero(s.H) {
		return fieldErrf("h", "core: the uniform baseline models no hot-spot class, got H = %v", s.H)
	}
	if s.K < 2 {
		return fieldErrf("k", "core: uniform K = %d, want >= 2", s.K)
	}
	if s.Dims < 1 {
		return fieldErrf("dims", "core: uniform Dims = %d, want >= 1", s.Dims)
	}
	return s.checkRanges(1)
}

func (m *uniformModel) StateSize() int { return 1 }

func (m *uniformModel) InitState(x []float64) { x[0] = m.lm + m.dbar }

//khs:hotpath
func (m *uniformModel) Iterate(in, out []float64) error {
	b, err := m.blocking(&m.c, in[0], 0)
	if err != nil {
		return fmt.Errorf("%w (uniform channel)", ErrSaturated)
	}
	out[0] = m.lm + m.dbar + m.dbar*b
	return nil
}

func (m *uniformModel) Assemble(x []float64, conv Convergence) (*SolveResult, error) {
	s := x[0]
	// The converged S must still pass the channel check Iterate applies.
	if _, err := m.blocking(&m.c, s, 0); err != nil {
		return nil, fmt.Errorf("%w (uniform channel)", ErrSaturated)
	}
	ws, err := queueing.PaperWait(m.s.Lambda/float64(m.s.V), s, m.lm)
	if err != nil {
		return nil, fmt.Errorf("%w (source queue)", ErrSaturated)
	}
	vbar, err := vcmodel.Degree(m.s.V, m.lc, s)
	if err != nil {
		return nil, err
	}
	latency := (s + ws) * vbar
	return &SolveResult{
		Latency: latency,
		// All traffic is one (uniform) class.
		Regular:        latency,
		Hot:            latency,
		SourceWait:     ws,
		VBar:           vbar,
		MaxUtilisation: m.lc * s,
		Convergence:    conv,
	}, nil
}

func init() {
	Register("uniform", Spec{Dims: 2}, validateUniform,
		func(s Spec, o Options) Solver { return newUniformModel(s, o) })
}

// SaturationLambda locates the model's saturation rate by bisection: the
// largest lambda (within relTol) for which solve succeeds. solve is called
// with increasing/decreasing rates; lo must succeed and hi fail (the caller
// may pass hi = 0 to auto-bracket).
func SaturationLambda(solve func(lambda float64) error, lo, hi, relTol float64) (float64, error) {
	if lo <= 0 {
		return 0, errors.New("core: SaturationLambda needs lo > 0")
	}
	if err := solve(lo); err != nil {
		return 0, fmt.Errorf("core: lower bracket %v already saturated: %w", lo, err)
	}
	if hi <= lo {
		hi = lo * 2
		for i := 0; i < 60; i++ {
			if solve(hi) != nil {
				break
			}
			lo = hi
			hi *= 2
		}
		if solve(hi) == nil {
			return 0, errors.New("core: could not bracket saturation")
		}
	} else if solve(hi) == nil {
		return 0, fmt.Errorf("core: upper bracket %v not saturated", hi)
	}
	if relTol <= 0 {
		relTol = 1e-3
	}
	for (hi-lo)/lo > relTol {
		mid := (hi + lo) / 2
		if solve(mid) == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
