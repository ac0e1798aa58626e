package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Spec is the variant-independent parameter set the registry accepts: the
// union of the registered variants' parameters, and the only parameter
// type the models take. Each variant's rules refuse the fields it cannot
// represent (e.g. the hypercube requires K = 2, the uniform baseline
// requires H = 0); a zero K or Dims stands for the variant's natural
// default where one exists, and Canonical spells that default out.
type Spec struct {
	// K is the radix; Dims the dimension count n.
	K, Dims int
	// V is the number of virtual channels per physical channel.
	V int
	// Lm is the message length in flits.
	Lm int
	// H is the hot-spot fraction in [0, 1).
	H float64
	// Lambda is the per-node generation rate in messages/cycle.
	Lambda float64
}

// maxV bounds a spec's cost before anything is allocated: each blocking
// evaluation takes O(V) work.
const maxV = 1024

// maxStateSize bounds the fixed-point state one spec may need, in
// variables: a prepared solver holds several state-sized buffers, and a
// solve a few more.
const maxStateSize = 1 << 21

// checkRanges reports the first out-of-range V, Lm, H or Lambda: the range
// rules every variant shares, checked after the variant's own topology
// rules. minV is the variant's virtual-channel floor.
func (s Spec) checkRanges(minV int) error {
	if s.V < minV || s.V > maxV {
		return fieldErrf("v", "core: V = %d, want %d..%d", s.V, minV, maxV)
	}
	if s.Lm < 1 {
		return fieldErrf("lm", "core: Lm = %d, want >= 1", s.Lm)
	}
	if s.H < 0 || s.H >= 1 || math.IsNaN(s.H) {
		return fieldErrf("h", "core: H = %v, want [0, 1)", s.H)
	}
	if s.Lambda <= 0 || math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) {
		return fieldErrf("lambda", "core: Lambda = %v, want > 0", s.Lambda)
	}
	return nil
}

// Rules reports the first problem with a canonical Spec under a variant's
// parameter rules, as a *FieldError: first the fields that contradict the
// variant (wrong Dims, H where none is modelled), then the ranges. It
// builds nothing, so validating a spec costs no solver.
type Rules func(s Spec) error

// Factory builds a variant's Solver from a canonical Spec its Rules
// accepted.
type Factory func(s Spec, o Options) Solver

// variant is one registry entry: the shape defaults a zero K or Dims
// stands for, the parameter rules and the factory.
type variant struct {
	defaults Spec
	rules    Rules
	factory  Factory
}

var (
	registryMu sync.RWMutex
	registry   = map[string]variant{}
)

// Register adds a named solver: its defaults (the K and Dims a zero field
// of a spec stands for, zero where the variant has no default), its
// parameter rules and its factory. It panics on an empty name, nil rules
// or factory, or a duplicate registration — all programming errors,
// caught at init time.
func Register(name string, defaults Spec, rules Rules, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" {
		panic("core: Register with empty solver name")
	}
	if rules == nil || f == nil {
		panic(fmt.Sprintf("core: Register(%q) with nil rules or factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: duplicate solver registration %q", name))
	}
	registry[name] = variant{defaults: defaults, rules: rules, factory: f}
}

// Solvers returns the registered solver names, sorted.
func Solvers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a solver name to its registry entry, with the
// structured unknown-model error shared by every registry entry point.
func lookup(name string) (variant, error) {
	registryMu.RLock()
	v, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return variant{}, fieldErrf("model", "core: unknown solver %q (registered: %s)",
			name, strings.Join(Solvers(), ", "))
	}
	return v, nil
}

// canonical fills the zero K and Dims of s with the variant's defaults.
func (v variant) canonical(s Spec) Spec {
	if s.K == 0 {
		s.K = v.defaults.K
	}
	if s.Dims == 0 {
		s.Dims = v.defaults.Dims
	}
	return s
}

// Canonical returns s with the named variant's defaults spelled out
// (Dims 0 → 2 on the 2-D, uniform and ndim variants, K 0 → 2 on the
// hypercube), so that specs which solve identically compare and key
// identically. An unknown name returns s unchanged.
func Canonical(name string, s Spec) Spec {
	v, err := lookup(name)
	if err != nil {
		return s
	}
	return v.canonical(s)
}

// validate checks o (Options.Validate), then the canonical form of s
// against the variant's rules.
func (v variant) validate(s Spec, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	return v.rules(v.canonical(s))
}

// solver validates s under o and builds the variant's Solver for its
// canonical form.
func (v variant) solver(s Spec, o Options) (Solver, error) {
	if err := v.validate(s, o); err != nil {
		return nil, err
	}
	return v.factory(v.canonical(s), o), nil
}

// NewSolver builds the named variant's Solver for the canonical form of
// the given spec, refusing a spec its rules refuse and options the
// variant does not implement (see Options.Validate).
func NewSolver(name string, s Spec, o Options) (Solver, error) {
	v, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return v.solver(s, o)
}

// ValidateSpec runs the named variant's full validation path for s under
// o — the registry lookup, the option checks (Options.Validate) and the
// variant's rules — without building, preparing or solving anything. Its
// error is the one a Solve of the same arguments would return before
// iterating.
func ValidateSpec(name string, s Spec, o Options) error {
	v, err := lookup(name)
	if err != nil {
		return err
	}
	return v.validate(s, o)
}

// Solve evaluates the named model variant through the shared fixed-point
// driver. Every registered variant — "hotspot-2d", "bidirectional-2d",
// "uniform", "ndim" and "hypercube", which is ndim at K = 2 — is
// reachable only through Solve, Prepare, SolveBatch and SolveLambdas, and
// each answers with the same SolveResult.
func Solve(name string, s Spec, o Options) (*SolveResult, error) {
	ps, err := Prepare(name, s, o)
	if err != nil {
		return nil, err
	}
	return ps.Solve(s.Lambda)
}
