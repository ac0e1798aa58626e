// Package fixpoint solves the systems of mutually-dependent nonlinear
// equations that analytical interconnect models produce. The paper (Section
// 3, final paragraph) notes that a closed-form solution of the
// interdependencies is intractable and resorts to iterative techniques;
// this package provides that machinery: damped successive substitution with
// convergence and divergence detection, Anderson acceleration (the
// default) for the slow-convergence regime near saturation, and an
// observability layer (a per-iteration trace hook and a Convergence summary)
// so saturation and slow-convergence diagnostics are data rather than opaque
// errors.
package fixpoint

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrDiverged reports that the iteration produced a non-finite value. In
// latency models this corresponds to operating beyond the saturation point.
var ErrDiverged = errors.New("fixpoint: iteration diverged (non-finite value)")

// ErrMaxIterations reports that the iteration failed to converge within the
// configured budget.
var ErrMaxIterations = errors.New("fixpoint: maximum iterations exceeded")

// Acceleration selects the extrapolation scheme layered on the damped
// substitution baseline.
type Acceleration int

const (
	// AccelAnderson is windowed Anderson mixing (type II), the zero-value
	// default: each round combines the last five residual differences by
	// least squares to extrapolate toward the fixed point, typically
	// cutting the iteration count by an order of magnitude near saturation
	// where the damped contraction rate approaches 1. It refuses only
	// where AccelNone refuses (see Solve).
	AccelAnderson Acceleration = iota
	// AccelNone is plain damped successive substitution, the explicit
	// opt-out. Its arithmetic is exactly the historical iteration: the
	// answers of the solver before Anderson became the default are
	// reproduced bit-for-bit.
	AccelNone
)

// String returns the scheme's canonical name as accepted by
// ParseAcceleration ("none", "anderson").
func (a Acceleration) String() string {
	switch a {
	case AccelNone:
		return "none"
	case AccelAnderson:
		return "anderson"
	default:
		return fmt.Sprintf("acceleration(%d)", int(a))
	}
}

// ParseAcceleration maps a scheme name to its Acceleration value. The
// empty string and "anderson" both select AccelAnderson, so an unset flag
// or API field means the default; "none" selects the damped baseline.
func ParseAcceleration(name string) (Acceleration, error) {
	switch name {
	case "", "anderson":
		return AccelAnderson, nil
	case "none":
		return AccelNone, nil
	default:
		return AccelAnderson, fmt.Errorf("fixpoint: unknown acceleration scheme %q (anderson, none)", name)
	}
}

// TraceRecord describes one substitution round; see Options.Trace.
type TraceRecord struct {
	// Iteration is the 1-based round index.
	Iteration int
	// MaxRelDelta is the round's maximum relative change over the state
	// variables (the convergence measure). On a diverging round it covers
	// only the variables scanned before the non-finite value was found.
	MaxRelDelta float64
	// Damping is the damping factor in effect.
	Damping float64
	// NonFiniteIndex is the index of the first state variable that became
	// NaN or infinite this round, or -1 while the state is finite. A
	// record with NonFiniteIndex >= 0 is the iteration's last.
	NonFiniteIndex int
	// Accelerated marks a round whose state update came from the configured
	// extrapolation scheme rather than the plain damped step (safeguard
	// fallbacks and warm-up rounds report false).
	Accelerated bool
}

// Options configure a Solve run. The zero value is replaced by Defaults.
type Options struct {
	// Tolerance is the maximum relative change of any variable between two
	// successive iterations for the state to count as converged.
	Tolerance float64
	// MaxIterations bounds the number of substitution rounds.
	MaxIterations int
	// Damping in (0, 1] mixes the new iterate with the previous one:
	// x' = (1-Damping)*x + Damping*F(x). 1 is plain substitution; smaller
	// values trade speed for robustness near saturation.
	Damping float64
	// Acceleration selects an extrapolation scheme on top of the damped
	// baseline: the zero value is AccelAnderson, and AccelNone leaves the
	// iteration untouched. Accelerated rounds are safeguarded: a round
	// whose residual increased relative to the previous round discards
	// the acceleration history and falls back to a plain damped step, so
	// a wild extrapolation can slow convergence but never destabilise it;
	// an attempt that fails or stalls hands over to the damped iteration
	// from the initial state (see Solve).
	Acceleration Acceleration
	// Trace, when non-nil, is called once per substitution round after the
	// state update (and once more, with NonFiniteIndex set, when a round
	// diverges). It must not retain the record past the call.
	Trace func(TraceRecord)
	// Ctx, when non-nil, cancels the iteration: it is checked once per
	// substitution round, and on cancellation Solve returns an error
	// wrapping ctx.Err() (context.Canceled or context.DeadlineExceeded).
	// Callers distinguish cancellation from saturation with errors.Is;
	// the core driver never reclassifies it as a saturation failure.
	Ctx context.Context
}

// Defaults returns the values a zero Tolerance, MaxIterations or Damping
// takes, field by field: the tight tolerance and round budget the latency
// models were calibrated with.
func Defaults() Options {
	return Options{Tolerance: 1e-9, MaxIterations: 20000, Damping: 0.5}
}

// window is the Anderson mixing depth: how many past residual
// differences the least-squares extrapolation combines.
const window = 5

// The passes of an accelerated round (record, move) name the window's
// five columns one by one; this fails to compile for any other window.
var _ = [1]struct{}{}[window-5]

// andersonBeta is the Anderson mixing factor: the weight of the residual
// in the extrapolated candidate. The candidate replaces the damped step
// rather than following it, so it takes the whole residual.
const andersonBeta = 1.0

// An accelerated attempt is abandoned for the damped iteration once its
// residual has gone stallRounds rounds without falling below half its
// lowest value so far: it is cycling or creeping, and the damped
// iteration from the initial state will do better.
const stallRounds = 25

func (o Options) withDefaults() (Options, error) {
	d := Defaults()
	// This package stays free of internal dependencies, so the unset-field
	// checks compare the zero value directly instead of via stats.IsZero.
	//lint:ignore floateq zero-value Options field means unset
	if o.Tolerance == 0 {
		o.Tolerance = d.Tolerance
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = d.MaxIterations
	}
	//lint:ignore floateq zero-value Options field means unset
	if o.Damping == 0 {
		o.Damping = d.Damping
	}
	if o.Tolerance < 0 {
		return o, fmt.Errorf("fixpoint: negative tolerance %v", o.Tolerance)
	}
	if o.MaxIterations < 1 {
		return o, fmt.Errorf("fixpoint: MaxIterations %d < 1", o.MaxIterations)
	}
	if o.Damping < 0 || o.Damping > 1 {
		return o, fmt.Errorf("fixpoint: damping %v outside (0, 1]", o.Damping)
	}
	if o.Acceleration < AccelAnderson || o.Acceleration > AccelNone {
		return o, fmt.Errorf("fixpoint: unknown acceleration scheme %d", o.Acceleration)
	}
	return o, nil
}

// Convergence summarises how an iteration ended: the round count, the final
// residual, the effective settings, and the outcome flags. It is Solve's
// result; models propagate it into their own results so callers can
// distinguish a comfortable fixed point from one found at the iteration
// budget's edge.
type Convergence struct {
	// Iterations is the number of substitution rounds performed.
	Iterations int
	// Residual is the final maximum relative change.
	Residual float64
	// Tolerance and Damping are the effective (defaulted) settings.
	Tolerance float64
	Damping   float64
	// Converged reports that Residual fell below Tolerance; Diverged that a
	// state variable became non-finite. Both false means the iteration
	// budget was exhausted (or the map returned an error).
	Converged bool
	Diverged  bool
	// NonFiniteIndex is the index of the first non-finite state variable
	// when Diverged, -1 otherwise.
	NonFiniteIndex int
	// AcceleratedRounds counts rounds whose update came from the configured
	// extrapolation scheme; DampedRounds counts plain damped-substitution
	// rounds, including warm-up rounds, safeguard fallbacks and the round
	// that abandons an accelerated attempt. The two sum to Iterations.
	AcceleratedRounds int
	DampedRounds      int
}

// Map evaluates one substitution round: given the current state it writes
// the next state into out (len(out) == len(in)). It may return an error to
// abort; the error is propagated to Solve's caller (models use this to
// signal saturation).
type Map func(in, out []float64) error

// Workspace is the scratch of a fixed-point solve: the map's output
// vector, the accelerated attempt's rollback and restart vectors, and the
// Anderson history. A solve grows the buffers to the state size it
// needs and leaves them in place, so a later solve of the same shape
// allocates nothing. Every per-solve field (the safeguard residual, the
// stall counter, the history's length and position) is reset on entry;
// only the buffers carry over, and each is written before it is read. The
// zero value is ready to use. A Workspace is not safe for concurrent use.
type Workspace struct {
	next []float64
	// rollback and rollbackF hold the iterate before the latest accelerated
	// step and its map value; initial holds the state the solve started
	// from, for the restart.
	rollback, rollbackF, initial []float64
	acc                          accelState
}

// Size returns the float64 values the workspace holds now: the capacity
// of every buffer it has grown. After a damped solve of an n-variable
// state that is n; an Anderson solve adds six more state vectors and the
// window × window normal equations with their right-hand side as it
// starts, then the zero column and a column pair per window slot as the
// history first fills it.
func (w *Workspace) Size() int {
	return cap(w.next) + cap(w.rollback) + cap(w.rollbackF) + cap(w.initial) + w.acc.size()
}

// Solve iterates x <- (1-d)x + d F(x) from the given initial state on a
// fresh Workspace; see (*Workspace).Solve. Its scratch is allocated as the
// solve first needs it and dropped afterwards.
//
//khs:hotpath
func Solve(state []float64, f Map, opts Options) (Convergence, error) {
	var w Workspace
	return w.Solve(state, f, opts)
}

// Solve iterates x <- (1-d)x + d F(x) from the given initial state until
// the maximum relative change falls below the tolerance, optionally
// accelerating rounds per Options.Acceleration, with w as its scratch. The
// state slice is modified in place and also returned. The returned
// Convergence summary is populated on every exit path, including errors.
//
// An accelerated solve refuses only where the damped one refuses. It
// starts as an accelerated attempt, which ends early when a map error or
// a non-finite update follows a path the damped iteration did not take,
// or when its residual goes stallRounds rounds without halving. The state
// is then reset to the initial one and the same loop carries on damped
// for the rest of the budget: those rounds are the AccelNone iteration's,
// so they reach its answer or its refusal, provided the damped solve fits
// in the rounds the attempt left. The stall rule keeps that share small
// (about stallRounds rounds per halving of the residual), and Iterations
// counts every round, the abandoned attempt's included.
//
//khs:hotpath
func (w *Workspace) Solve(state []float64, f Map, opts Options) (Convergence, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return Convergence{NonFiniteIndex: -1}, err
	}
	n := len(state)
	carve(n, &w.next)
	next := w.next
	conv := Convergence{
		Tolerance:      o.Tolerance,
		Damping:        o.Damping,
		NonFiniteIndex: -1,
	}
	trace := func(maxRel float64, nonFinite int, accelerated bool) { //lint:ignore hotalloc trace closure bound once per Solve, before the rounds
		if o.Trace != nil {
			o.Trace(TraceRecord{
				Iteration:      conv.Iterations,
				MaxRelDelta:    maxRel,
				Damping:        o.Damping,
				NonFiniteIndex: nonFinite,
				Accelerated:    accelerated,
			})
		}
	}
	var acc *accelState
	// lastAccel marks that the most recent state update was an accelerated
	// step whose pre-step state (and its map value) are held in
	// w.rollback/w.rollbackF. An extrapolation can land outside the model's
	// domain — the map then errors or the next update goes non-finite even
	// though the fixed point exists — so any failure in the round after an
	// accelerated step restores the pre-step state and redoes the round
	// damped instead of reporting divergence.
	lastAccel := false
	if o.Acceleration != AccelNone && n > 0 {
		carve(n, &w.rollback, &w.rollbackF, &w.initial)
		copy(w.initial, state)
		acc = &w.acc
		acc.begin(n)
	}
	// rollBack restores the iterate from before the latest accelerated step
	// and its (already evaluated) map value, and drops the history.
	rollBack := func() { //lint:ignore hotalloc closure bound once per Solve, before the rounds
		copy(state, w.rollback)
		copy(next, w.rollbackF)
		acc.reset()
		lastAccel = false
	}
	// restart abandons the accelerated attempt: the state goes back to the
	// initial one and the rounds that follow are the damped iteration's.
	// It returns the relative change of the reset, the measure a round
	// that ends in one reports.
	restart := func() float64 { //lint:ignore hotalloc restart closure bound once per Solve, before the rounds
		maxRel := relChange(state, w.initial)
		copy(state, w.initial)
		acc, lastAccel = nil, false
		return maxRel
	}
	// diverted reports that the attempt has left the damped iteration's
	// path. Until its first accelerated step the attempt is the damped
	// iteration itself, so a failure there is the damped refusal.
	diverted := func() bool { return acc != nil && conv.AcceleratedRounds > 0 } //lint:ignore hotalloc closure bound once per Solve, before the rounds
rounds:
	for iter := 1; iter <= o.MaxIterations; iter++ {
		if o.Ctx != nil {
			if cerr := o.Ctx.Err(); cerr != nil {
				return conv, fmt.Errorf("fixpoint: cancelled after %d iterations: %w",
					conv.Iterations, cerr)
			}
		}
		if acc != nil && acc.stalled() {
			restart()
		}
		conv.Iterations = iter
		redo := false
		if err := f(state, next); err != nil {
			if !lastAccel {
				if !diverted() {
					return conv, err
				}
				conv.DampedRounds++
				trace(restart(), -1, false)
				continue
			}
			// Rejected extrapolation: take a damped step from the
			// pre-acceleration state instead.
			rollBack()
			redo = true
		}
		if acc != nil && !redo && acc.step(state, next) {
			// One pass forms the candidate, checks it finite, measures the
			// move and makes it, leaving the pre-step iterate in acc.back;
			// that buffer becomes the rollback, the old rollback the next
			// one. The map value becomes rollbackF the same way, and the old
			// rollbackF receives the next round's map value.
			if maxRel, ok := acc.move(state); ok {
				w.rollback, acc.back = acc.back, w.rollback
				w.rollbackF, w.next = next, w.rollbackF
				next = w.next
				lastAccel = true
				conv.Residual = maxRel
				conv.AcceleratedRounds++
				trace(maxRel, -1, true)
				if maxRel <= o.Tolerance {
					conv.Converged = true
					return conv, nil
				}
				continue
			}
			// A non-finite candidate rejects the round: the history goes
			// and the round is damped.
			acc.reset()
		}
		// Damped round: the exact baseline arithmetic (golden results pin
		// this path bit-for-bit under AccelNone).
	damped:
		maxRel := 0.0
		for i := range state {
			nv := (1-o.Damping)*state[i] + o.Damping*next[i]
			if math.IsNaN(nv) || math.IsInf(nv, 0) {
				if lastAccel {
					// Overflow downstream of an extrapolation, not genuine
					// divergence: restore and redo the round damped.
					rollBack()
					goto damped
				}
				if diverted() {
					conv.DampedRounds++
					trace(restart(), -1, false)
					continue rounds
				}
				conv.Residual = maxRel
				conv.Diverged = true
				conv.NonFiniteIndex = i
				trace(maxRel, i, false)
				return conv, ErrDiverged
			}
			den := math.Abs(state[i])
			if den < 1 {
				den = 1
			}
			rel := math.Abs(nv-state[i]) / den
			if rel > maxRel {
				maxRel = rel
			}
			state[i] = nv
		}
		lastAccel = false
		conv.Residual = maxRel
		conv.DampedRounds++
		trace(maxRel, -1, false)
		if maxRel <= o.Tolerance {
			conv.Converged = true
			return conv, nil
		}
	}
	return conv, ErrMaxIterations
}

// carve resizes each of the vectors vs to n. When any is short of
// capacity it allocates them all as one block, so a fresh workspace pays
// one allocation per group of same-sized vectors rather than one each.
func carve(n int, vs ...*[]float64) {
	short := false
	for _, v := range vs {
		short = short || cap(*v) < n
	}
	if !short {
		for _, v := range vs {
			*v = (*v)[:n]
		}
		return
	}
	buf := make([]float64, len(vs)*n) //lint:ignore hotalloc a workspace's buffers grow once, a group as one block, and are reused by later solves of that shape
	for i, v := range vs {
		*v = buf[i*n : (i+1)*n : (i+1)*n]
	}
}

// relChange is the convergence measure of moving from x to y: the maximum
// change relative to max(|x_i|, 1).
func relChange(x, y []float64) float64 {
	maxRel := 0.0
	for i := range x {
		if rel := relStep(x[i], y[i]-x[i]); rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}

// relStep is one component's term of relChange: the change d of a
// variable at x, relative to max(|x|, 1).
func relStep(x, d float64) float64 {
	den := math.Abs(x)
	if den < 1 {
		den = 1
	}
	return math.Abs(d) / den
}

// accelState carries the Anderson history kept between rounds, and all
// of its scratch. begin sizes everything but the difference columns and
// the zero column, which record allocates as the history first grows
// into each slot; a workspace keeps them for its later solves. Once the
// history is full, accelerated rounds allocate nothing.
//
// An accelerated round makes two passes over the state besides the map:
// record extends the history and forms the least-squares system's new
// entries, and move forms the candidate and takes the step.
type accelState struct {
	// Safeguard: the residual norm observed on the previous round. A round
	// whose residual grew rejects acceleration, clears the history and
	// falls back to a damped step.
	prevRes float64
	hasPrev bool

	// Stall detection: the residual norm the attempt last halved to, and
	// the rounds since.
	best      float64
	sinceBest int

	// Anderson history, held as differences: the last recorded iterate
	// xLast and its residual gLast = F(xLast) - xLast, and up to window
	// difference columns Δg_j = g_{j+1} - g_j with their step columns
	// u_j = Δx_j + βΔg_j, Δx_j = x_{j+1} - x_j, the combination the
	// candidate subtracts. The columns live in a ring of window slots;
	// logical column j (0 the oldest) is slot (head+j) % window. gramAll
	// holds <Δg, Δg> for every pair of live slots (window × window, by
	// slot): each inner product is computed once, when the newer of its two
	// columns arrives, and reused until one of them is evicted.
	hasLast      bool
	xLast, gLast []float64
	u, dg        [window][]float64 // [slot][i]
	head, cols   int
	gramAll      []float64

	// zero is an all-zero vector, the padding column of record and move
	// while the history holds fewer than window columns; record allocates
	// it with the first column, and nothing writes it.
	zero []float64

	// back receives the iterate an accelerated step moves from (move),
	// and then serves as the workspace's rollback vector; the old rollback
	// vector becomes the next back.
	back []float64

	// Anderson normal equations for the current m columns: record writes
	// the right-hand side <Δg_j, g> into rhs, anderson rebuilds gram from
	// gramAll and solves in place (solveSPD factors gram and leaves γ in
	// rhs), and move reads γ.
	gram []float64
	rhs  []float64
}

// begin readies the history for a solve of an n-variable state: it resets
// every per-solve field and sizes the buffers, keeping those a previous
// solve of the same size left.
func (a *accelState) begin(n int) {
	a.prevRes, a.hasPrev = 0, false
	a.best, a.sinceBest = math.Inf(1), 0
	a.reset()
	if len(a.back) != n {
		// Difference columns cut for another state size are dropped;
		// record allocates them again as the history grows.
		clear(a.u[:])
		clear(a.dg[:])
	}
	carve(n, &a.back, &a.xLast, &a.gLast)
	carve(window*window, &a.gramAll, &a.gram)
	carve(window, &a.rhs)
}

// size is the float64 values the history's buffers hold.
func (a *accelState) size() int {
	n := cap(a.back) + cap(a.xLast) + cap(a.gLast) + cap(a.zero) + cap(a.gramAll) + cap(a.gram) + cap(a.rhs)
	for i := range a.u {
		n += cap(a.u[i]) + cap(a.dg[i])
	}
	return n
}

// step decides this round's update. state is the current iterate and fx
// its map value (left untouched). It reports whether an accelerated
// candidate is ready for move; false means a plain damped step from the
// current state.
func (a *accelState) step(state, fx []float64) bool {
	// The residual measure g = F(x) - x, consistent with the convergence
	// measure up to the damping factor. record takes it in the pass that
	// stores the iterate; a safeguard rejection below drops what it stored.
	res := a.record(state, fx)
	if res < a.best/2 {
		a.best, a.sinceBest = res, 0
	} else {
		a.sinceBest++
	}
	if a.hasPrev && res > a.prevRes {
		// Safeguard: the previous round's update made things worse. Discard
		// the extrapolation history and fall back to a damped step; a
		// rejected least-squares candidate is still a reasonable iterate to
		// continue from.
		a.reset()
		a.prevRes = res
		return false
	}
	a.prevRes = res
	a.hasPrev = true
	return a.anderson()
}

// stalled reports that the residual has gone stallRounds rounds without
// halving.
func (a *accelState) stalled() bool { return a.sinceBest >= stallRounds }

// reset drops all extrapolation history (safeguard rejection).
func (a *accelState) reset() {
	a.hasLast, a.head, a.cols = false, 0, 0
}

// record appends the iterate x with map value fx to the Anderson history:
// the difference columns against the previous iterate, evicting the
// oldest column once window are held. The same pass forms the normal
// equations' new entries: the inner product of every live Δg column with
// the newest (into gramAll) and with the current residual g (into rhs),
// each accumulated in component order. It returns relChange(x, fx).
func (a *accelState) record(x, fx []float64) float64 {
	maxRel := 0.0
	if !a.hasLast {
		for i := range x {
			g := fx[i] - x[i]
			a.xLast[i] = x[i]
			a.gLast[i] = g
			if rel := relStep(x[i], g); rel > maxRel {
				maxRel = rel
			}
		}
		a.hasLast = true
		return maxRel
	}
	slot := (a.head + a.cols) % window
	if a.cols == window {
		a.head = (a.head + 1) % window
	} else {
		a.cols++
	}
	n := len(x)
	if a.dg[slot] == nil {
		// A slot's buffers are allocated the first time a column lands in
		// it and reused after, so a solve that stops early never holds the
		// whole window, and rounds allocate nothing once window columns
		// have been recorded.
		buf := make([]float64, 2*n) //lint:ignore hotalloc each history slot is allocated once per workspace, on first use
		a.u[slot], a.dg[slot] = buf[:n:n], buf[n:]
	}
	if cap(a.zero) < n {
		a.zero = make([]float64, n) //lint:ignore hotalloc the zero column is allocated once per workspace, with the first history slot
	}
	a.zero = a.zero[:n]
	u, dg := a.u[slot], a.dg[slot]
	// The older columns in logical order, padded with the zero column to
	// the window's four, and their products with the newest column (s)
	// and with g (r); a padding column's products are dropped. The
	// newest's own are sNew, rNew.
	old := a.cols - 1
	var cols [window - 1][]float64
	for j := range cols {
		cols[j] = a.zero
		if j < old {
			cols[j] = a.dg[(a.head+j)%window]
		}
	}
	c0, c1, c2, c3 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n]
	fx, u, dg = fx[:n], u[:n], dg[:n]
	xLast, gLast := a.xLast[:n], a.gLast[:n]
	s0, s1, s2, s3, sNew := 0.0, 0.0, 0.0, 0.0, 0.0
	r0, r1, r2, r3, rNew := 0.0, 0.0, 0.0, 0.0, 0.0
	for i, xi := range x {
		g := fx[i] - xi
		d := g - gLast[i]
		u[i] = (xi - xLast[i]) + andersonBeta*d
		dg[i] = d
		xLast[i] = xi
		gLast[i] = g
		if rel := relStep(xi, g); rel > maxRel {
			maxRel = rel
		}
		s0 += c0[i] * d
		r0 += c0[i] * g
		s1 += c1[i] * d
		r1 += c1[i] * g
		s2 += c2[i] * d
		r2 += c2[i] * g
		s3 += c3[i] * d
		r3 += c3[i] * g
		sNew += d * d
		rNew += d * g
	}
	s, r := [window - 1]float64{s0, s1, s2, s3}, [window - 1]float64{r0, r1, r2, r3}
	for j := range old {
		sj := (a.head + j) % window
		a.gramAll[sj*window+slot], a.gramAll[slot*window+sj] = s[j], s[j]
		a.rhs[j] = r[j]
	}
	a.gramAll[slot*window+slot] = sNew
	a.rhs[old] = rNew
	return maxRel
}

// anderson solves for the type-II Anderson-mixing weights γ of the
// candidate
//
//	x' = x + β g - Σ_j γ_j (Δx_j + β Δg_j),  g_j = F(x_j) - x_j,
//
// γ being the least-squares combination of the stored residual
// differences Δg_j that best cancels the current residual, from the
// history and the normal-equation entries record has just extended. γ
// is left in rhs for move; a singular system rejects the round.
func (a *accelState) anderson() bool {
	m := a.cols
	if m < 1 {
		return false
	}
	// Normal equations Aγ = b with Tikhonov regularisation scaled to the
	// Gram diagonal, so near-collinear histories stay solvable.
	gram := a.gram[:m*m]
	diag := 0.0
	for j := 0; j < m; j++ {
		sj := (a.head + j) % window
		for k := 0; k < m; k++ {
			gram[j*m+k] = a.gramAll[sj*window+(a.head+k)%window]
		}
		diag += gram[j*m+j]
	}
	reg := 1e-12 * diag / float64(m)
	if reg <= 0 || math.IsNaN(reg) || math.IsInf(reg, 0) {
		a.reset()
		return false
	}
	for j := 0; j < m; j++ {
		gram[j*m+j] += reg
	}
	if _, ok := solveSPD(gram, a.rhs[:m], m); !ok {
		a.reset()
		return false
	}
	return true
}

// move takes the accelerated step from x to the candidate anderson
// solved for, in one pass: each component is formed as x + βg less the
// columns' terms oldest first, checked finite, measured against x, and
// stored, while a.back keeps the component it replaced. It returns
// relChange(x, x'). A non-finite component rejects the step: the
// components already moved are restored from a.back and ok is false.
func (a *accelState) move(x []float64) (maxRel float64, ok bool) {
	// The columns oldest first, padded with the zero column under a zero
	// weight: a padding term subtracts +0, which leaves every value as it
	// is.
	m := a.cols
	var cols [window][]float64
	var gamma [window]float64
	for j := range cols {
		cols[j] = a.zero
		if j < m {
			cols[j], gamma[j] = a.u[(a.head+j)%window], a.rhs[j]
		}
	}
	n := len(x)
	g, back := a.gLast[:n], a.back[:n]
	c0, c1, c2, c3, c4 := cols[0][:n], cols[1][:n], cols[2][:n], cols[3][:n], cols[4][:n]
	g0, g1, g2, g3, g4 := gamma[0], gamma[1], gamma[2], gamma[3], gamma[4]
	for i, xi := range x {
		v := xi + andersonBeta*g[i]
		v -= g0 * c0[i]
		v -= g1 * c1[i]
		v -= g2 * c2[i]
		v -= g3 * c3[i]
		v -= g4 * c4[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			copy(x[:i], back)
			return 0, false
		}
		if rel := relStep(xi, v-xi); rel > maxRel {
			maxRel = rel
		}
		back[i] = xi
		x[i] = v
	}
	return maxRel, true
}

// solveSPD solves the m×m symmetric positive-definite system given row-major
// in a (overwritten) with right-hand side b (overwritten with the solution),
// by Cholesky decomposition. Returns false when the matrix is not positive
// definite within floating-point tolerance.
func solveSPD(a, b []float64, m int) ([]float64, bool) {
	// Cholesky: a = LLᵀ, stored in the lower triangle of a.
	for j := 0; j < m; j++ {
		d := a[j*m+j]
		for k := 0; k < j; k++ {
			d -= a[j*m+k] * a[j*m+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		d = math.Sqrt(d)
		a[j*m+j] = d
		for i := j + 1; i < m; i++ {
			s := a[i*m+j]
			for k := 0; k < j; k++ {
				s -= a[i*m+k] * a[j*m+k]
			}
			a[i*m+j] = s / d
		}
	}
	// Forward substitution Ly = b.
	for i := 0; i < m; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*m+k] * b[k]
		}
		b[i] = s / a[i*m+i]
	}
	// Back substitution Lᵀγ = y.
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < m; k++ {
			s -= a[k*m+i] * b[k]
		}
		b[i] = s / a[i*m+i]
	}
	return b, true
}
