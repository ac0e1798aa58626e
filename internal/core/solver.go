package core

// The Solver interface and the shared fixed-point driver. The four models
// (hot-spot torus, bidirectional torus, uniform baseline and general
// k-ary n-cube, the last registered a second time as the hypercube at
// K = 2) are all the same pipeline — traffic rates → service-time
// recursions → M/G/1 blocking → source queue → Dally's V̄ — solved by
// fixed-point iteration; this file holds the single copy of everything
// that pipeline shares: the driver around the fixed-point iteration, the
// blocking composition, and the saturation classification of iteration
// failures. Variant files implement Solver and register their rules and a
// factory (registry.go); nothing below this layer calls fixpoint.Solve or
// a fixpoint.Workspace directly.

import (
	"errors"
	"fmt"

	"kncube/internal/fixpoint"
	"kncube/internal/queueing"
	"kncube/internal/stats"
	"kncube/internal/vcmodel"
)

// Convergence re-exports the fixed-point diagnostic summary carried by
// every solved result.
type Convergence = fixpoint.Convergence

// Solver is one latency-model variant, expressed as the fixed-point system
// the shared driver iterates, built by its registered Factory for a spec
// its registered Rules accepted. Construction is trivial; the
// spec-invariant setup happens in Prepare and the heavy work in Iterate
// and Assemble.
//
// The solve phases split along the λ boundary: Prepare builds everything
// that depends only on the topology shape (ring/row enumeration, hot-spot
// rate topology, channel indexing, case probabilities), while SetLambda
// recomputes only the offered-load-dependent traffic rates. A prepared
// solver can therefore be re-solved for many loads — the shape of sweeps,
// surface builds, and batch requests — without repeating the setup; see
// PreparedSolver and SolveBatch in batch.go.
type Solver interface {
	// Prepare builds the spec-invariant machinery and computes the traffic
	// rates for the constructed load. Idempotent: a second call is a no-op
	// apart from re-deriving the rates. The driver calls it before any
	// other state access.
	Prepare()
	// SetLambda re-points the prepared solver at a new offered load,
	// recomputing only the λ-dependent traffic rates in place. Prepare
	// must have been called first.
	SetLambda(lambda float64)
	// StateSize is the length of the flattened fixed-point vector.
	StateSize() int
	// InitState writes the zero-load (blocking-free) starting point into
	// x, which has length StateSize.
	InitState(x []float64)
	// Iterate is the substitution map out = F(in) (a fixpoint.Map).
	// Implementations wrap blocking failures in ErrSaturated.
	Iterate(in, out []float64) error
	// Assemble computes the variant's result from the converged state; the
	// convergence summary must be propagated into the result.
	Assemble(x []float64, conv Convergence) (*SolveResult, error)
}

// SolveResult is a solved model, the one result type of every variant:
// the latency decomposition, the busiest channel's utilisation and the
// convergence diagnostics.
type SolveResult struct {
	// Latency is the mean message latency in cycles (Eq. 10).
	Latency float64
	// Regular and Hot are the class-conditional mean latencies. Variants
	// without a hot-spot class (the uniform baseline, or H = 0) report
	// both equal to Latency.
	Regular, Hot float64
	// SourceWait is the mean source-queue waiting time (Eq. 32).
	SourceWait float64
	// VBar is the channel-averaged virtual-channel multiplexing degree
	// (Eqs. 33-37).
	VBar float64
	// MaxUtilisation is the highest channel holding-time utilisation
	// λ·S̄ (Eq. 27) over the network's channel classes. Because wormhole
	// holding times include stalls, it can exceed 1 near saturation; the
	// flit-capacity bound is enforced separately.
	MaxUtilisation float64
	// Convergence summarises the fixed-point iteration.
	Convergence Convergence
}

// RoundBudget returns the fixed-point round budget (the defaulted
// MaxIterations) a solve of any model under o runs with — the most trace
// rounds one solve can produce.
func RoundBudget(o Options) int {
	if n := o.FixPoint.MaxIterations; n > 0 {
		return n
	}
	return fixpoint.Defaults().MaxIterations
}

// finishSolve is the shared driver: it runs the fixed-point iteration on
// a prepared solver over an initialised state vector, with ws as its
// scratch, classifies failures, and assembles the result. It is the single
// entry point into the fixed-point iteration for every model variant;
// every solve, one-shot, prepared or batched, is a PreparedSolver's and
// reaches it through PreparedSolver.Solve or SolveWarm.
func finishSolve(s Solver, x []float64, o Options, ws *fixpoint.Workspace) (*SolveResult, error) {
	conv, err := ws.Solve(x, s.Iterate, o.FixPoint)
	if err != nil {
		// Divergence and budget exhaustion are how an analytical latency
		// model expresses operation beyond its saturation point; anything
		// else (including ErrSaturated already wrapped by Iterate, and the
		// context.Canceled/DeadlineExceeded wrappers produced when
		// o.FixPoint.Ctx cancels the iteration) passes through unchanged,
		// so callers can tell a cancelled solve from a saturated one.
		if errors.Is(err, fixpoint.ErrDiverged) || errors.Is(err, fixpoint.ErrMaxIterations) {
			return nil, fmt.Errorf("%w: %v", ErrSaturated, err)
		}
		return nil, err
	}
	return s.Assemble(x, conv)
}

// solverBase carries the knobs every variant's blocking composition
// shares; embedding it is what keeps the per-variant models free of their
// own copies of these methods. Of the Options it was built with it keeps
// only the blocking form: the fixed-point settings, hooks included, belong
// to the PreparedSolver that runs the model, so a pooled model holds no
// caller's context or trace.
type solverBase struct {
	form BlockingForm
	v    int     // virtual channels per physical channel
	lm   float64 // message length in flits
}

func newSolverBase(o Options, v, lm int) solverBase {
	return solverBase{form: o.Blocking, v: v, lm: float64(lm)}
}

// channel is one channel class of a model: a channel carrying regular
// traffic at rate lr and hot-spot traffic at rate lh, with the part of its
// blocking delay that depends on those rates alone. SetLambda builds each
// class once per load (solverBase.channel), and blocking completes the
// delay every round from the round's service times.
type channel struct {
	lr, lh float64
	// err is the class's load-only refusal: beyond the flit capacity or,
	// under the default form, past the stability of the link's M/G/1. idle
	// marks a class that carries no traffic.
	err  error
	idle bool
	// wait is the waiting time wc of BlockingVCOccupancy, an M/G/1 with the
	// link's flit transmission time Lm+1 as deterministic service.
	// BlockingMultiServer computes its wait each round instead, since the
	// service times enter it.
	wait float64
}

// channel computes the load-only part of the blocking delay of a channel
// carrying regular traffic at rate lr and hot-spot traffic at rate lh.
func (b *solverBase) channel(lr, lh float64) channel {
	c := channel{lr: lr, lh: lh}
	switch {
	case (lr+lh)*b.lm >= 1:
		// The physical channel moves at most one flit per cycle; beyond that
		// flit capacity no queueing treatment is meaningful.
		c.err = queueing.ErrUnstable
	case stats.IsZero(lr + lh):
		c.idle = true
	case b.form == BlockingVCOccupancy:
		c.wait, c.err = queueing.MG1Wait(lr+lh, b.lm+1, 0)
	}
	return c
}

// blocking composes Eqs. 26-30 under the configured form, for channel
// class c carrying regular traffic with service time sr and hot-spot
// traffic with service time sh. Service is taken as deterministic (zero
// variance) in both forms.
func (b *solverBase) blocking(c *channel, sr, sh float64) (float64, error) {
	if c.err != nil || c.idle {
		return 0, c.err
	}
	if b.form == BlockingMultiServer {
		return queueing.MGcWait(c.lr+c.lh, queueing.WeightedService(c.lr, sr, c.lh, sh), b.v)
	}
	// BlockingVCOccupancy: Pb is the chance all V virtual channels are held
	// (Eqs. 33-34) at the holding-time utilisation of Eq. 27.
	rho := c.lr*sr + c.lh*sh
	if rho > 1 {
		rho = 1
	}
	return vcmodel.AllBusy(b.v, rho*(1-1e-12)) * c.wait, nil
}
