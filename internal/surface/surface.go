// Package surface precomputes model latency surfaces — solved (λ, h)
// grids per topology shape — and serves interpolated lookups from them
// in microseconds where an exact solve costs milliseconds. A Surface
// holds the full latency decomposition (latency, class-conditional
// means, source wait, multiplexing degree) on an ascending λ × h grid
// together with a saturation-frontier mask; the interpolator (interp.go)
// answers off-grid queries with a monotone cubic in λ and a linear blend
// in h, reports an error estimate, and refuses — so callers can fall
// back to the exact solver — near the saturation frontier or outside
// the grid. Surfaces round-trip through a compact checksummed binary
// format (codec.go) and are served out of a keyed Store (store.go);
// the shard subpackage spreads shape ownership across replicas.
package surface

import (
	"errors"
	"fmt"

	"kncube/internal/core"
	"kncube/internal/fixpoint"
)

// Def identifies a surface: the model variant, the topology shape, the
// solver options that change the answer, and the grid axes. Two
// surfaces with equal Defs answer the same queries; Lambda and H are
// the grid axes rather than fixed parameters. The fixed-point knobs
// (tolerance, damping, acceleration) are deliberately not part of the
// identity — converged results agree to within the solve tolerance
// regardless of how the iteration got there.
type Def struct {
	// Model is the registered solver name ("hotspot-2d", ...).
	Model string `json:"model"`
	// K, Dims, V, Lm fix the topology shape (see core.Spec).
	K    int `json:"k"`
	Dims int `json:"dims"`
	V    int `json:"v"`
	Lm   int `json:"lm"`
	// Blocking is the one result-affecting solver option
	// (core.Options.Blocking).
	Blocking core.BlockingForm `json:"blocking,omitempty"`
	// Hs is the ascending hot-spot-fraction axis, each in [0, 1).
	Hs []float64 `json:"hs"`
	// Lambdas is the ascending offered-load axis, each > 0.
	Lambdas []float64 `json:"lambdas"`
}

// Validate reports the first structural problem with the definition,
// including option values no solver implements (core.Options.Validate),
// so a file written with a retired form is refused at load. Solver-side
// parameter validation (radix range, V floor, ...) happens when Build
// prepares the first grid row.
func (d Def) Validate() error {
	if d.Model == "" {
		return fmt.Errorf("surface: Def.Model is empty")
	}
	if err := d.options().Validate(); err != nil {
		return fmt.Errorf("surface: %w", err)
	}
	if len(d.Hs) == 0 {
		return fmt.Errorf("surface: Def.Hs is empty")
	}
	if len(d.Lambdas) < 2 {
		return fmt.Errorf("surface: Def.Lambdas has %d points, want >= 2 (interpolation needs an interval)", len(d.Lambdas))
	}
	for i, h := range d.Hs {
		if h < 0 || h >= 1 {
			return fmt.Errorf("surface: Def.Hs[%d] = %v, want [0, 1)", i, h)
		}
		if i > 0 && !(h > d.Hs[i-1]) {
			return fmt.Errorf("surface: Def.Hs must be strictly ascending (index %d: %v after %v)", i, h, d.Hs[i-1])
		}
	}
	for i, lam := range d.Lambdas {
		if !(lam > 0) {
			return fmt.Errorf("surface: Def.Lambdas[%d] = %v, want > 0", i, lam)
		}
		if i > 0 && !(lam > d.Lambdas[i-1]) {
			return fmt.Errorf("surface: Def.Lambdas must be strictly ascending (index %d: %v after %v)", i, lam, d.Lambdas[i-1])
		}
	}
	return nil
}

// Key is the shape key a surface answers for: every Def field that
// changes the answer except the grid axes. Surfaces with the same Key
// cover (possibly different regions of) the same query space, and the
// shard ring assigns ownership by this key.
func (d Def) Key() string {
	return ShapeKey(d.Model, core.Spec{K: d.K, Dims: d.Dims, V: d.V, Lm: d.Lm}, d.options())
}

// ShapeKey builds the surface shape key for a model name, a spec (H and
// Lambda ignored — they are query coordinates, not shape), and the
// result-affecting options (fixed-point knobs ignored). The spec is keyed
// in its canonical form (core.Canonical), matching the serve layer's
// solve-cache convention: a variant's zero-value aliases (e.g. Dims 0 vs 2
// on the 2-D models) are one key, so a surface built with the default
// omitted answers queries that spell it out, and both spellings map to
// the same shard owner.
func ShapeKey(model string, s core.Spec, o core.Options) string {
	s = core.Canonical(model, s)
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d", model, s.K, s.Dims, s.V, s.Lm, o.Blocking)
}

// options rebuilds the core.Options the surface was (or will be) solved
// with, minus iteration knobs.
func (d Def) options() core.Options {
	return core.Options{Blocking: d.Blocking}
}

// Surface is a solved latency surface: the Def plus row-major
// [len(Hs)][len(Lambdas)] grids of the full latency decomposition and
// the saturation mask. Saturated cells hold NaN in the value grids.
// A Surface is immutable once built (or decoded) and safe for
// concurrent lookups.
type Surface struct {
	Def Def

	// Latency, Regular, Hot, SourceWait, VBar mirror the fields of
	// core.SolveResult, flattened row-major: cell (hi, li) is at
	// index hi*len(Def.Lambdas)+li.
	Latency, Regular, Hot, SourceWait, VBar []float64

	// Saturated marks grid cells beyond the saturation frontier. Within
	// each h row the mask is a suffix: the builder stops the λ sweep at
	// the first saturated load (latency is monotone in λ).
	Saturated []bool

	// satIdx[hi] is the first saturated λ index of row hi (len(Lambdas)
	// when the row never saturates). derivs holds the precomputed
	// monotone-cubic knot derivatives per field and row. Both are
	// derived from the grids on build/decode, not serialized.
	satIdx []int
	derivs [numFields][]float64
}

// grid field indices into Surface.derivs.
const (
	fieldLatency = iota
	fieldRegular
	fieldHot
	fieldSourceWait
	fieldVBar
	numFields
)

func (s *Surface) grid(f int) []float64 {
	switch f {
	case fieldLatency:
		return s.Latency
	case fieldRegular:
		return s.Regular
	case fieldHot:
		return s.Hot
	case fieldSourceWait:
		return s.SourceWait
	default:
		return s.VBar
	}
}

// Points returns the grid size and how many of its cells are beyond the
// saturation frontier.
func (s *Surface) Points() (total, saturated int) {
	total = len(s.Saturated)
	for _, sat := range s.Saturated {
		if sat {
			saturated++
		}
	}
	return total, saturated
}

// BuildOptions configure Build.
type BuildOptions struct {
	// FixPoint sets the iteration knobs (tolerance, budget, damping,
	// acceleration, context) for the build solves. Zero values keep the
	// solver defaults.
	FixPoint fixpoint.Options
	// Progress, when set, is called after every grid point with the
	// number of points finished so far and the grid total.
	Progress func(done, total int)
}

// Build solves the definition's full (λ, h) grid and returns the
// surface. Each h row is one prepared solver swept along the ascending
// λ axis with warm starts; the sweep stops at the row's saturation
// frontier and the remaining cells are masked without being solved.
// Failures other than saturation (an invalid shape, a cancelled
// context) abort the build.
func Build(d Def, bo BuildOptions) (*Surface, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	nl, nh := len(d.Lambdas), len(d.Hs)
	s := &Surface{
		Def:        d,
		Latency:    make([]float64, nh*nl),
		Regular:    make([]float64, nh*nl),
		Hot:        make([]float64, nh*nl),
		SourceWait: make([]float64, nh*nl),
		VBar:       make([]float64, nh*nl),
		Saturated:  make([]bool, nh*nl),
	}
	opts := d.options()
	opts.FixPoint = bo.FixPoint
	done := 0
	for hi, h := range d.Hs {
		shape := core.Spec{K: d.K, Dims: d.Dims, V: d.V, Lm: d.Lm, H: h}
		items, err := core.SolveLambdas(d.Model, shape, d.Lambdas, opts)
		if err != nil {
			return nil, fmt.Errorf("surface: row h=%v: %w", h, err)
		}
		for li, it := range items {
			cell := hi*nl + li
			switch {
			case it.Err == nil:
				s.Latency[cell] = it.Result.Latency
				s.Regular[cell] = it.Result.Regular
				s.Hot[cell] = it.Result.Hot
				s.SourceWait[cell] = it.Result.SourceWait
				s.VBar[cell] = it.Result.VBar
			case errors.Is(it.Err, core.ErrSaturated):
				s.Saturated[cell] = true
				s.Latency[cell] = nan
				s.Regular[cell] = nan
				s.Hot[cell] = nan
				s.SourceWait[cell] = nan
				s.VBar[cell] = nan
			default:
				return nil, fmt.Errorf("surface: point h=%v λ=%v: %w", h, d.Lambdas[li], it.Err)
			}
			done++
			if bo.Progress != nil {
				bo.Progress(done, nh*nl)
			}
		}
	}
	s.prepare()
	return s, nil
}
