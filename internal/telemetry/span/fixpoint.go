package span

import (
	"context"

	"kncube/internal/fixpoint"
)

// FixpointTrace is the one bridge from fixpoint.Options.Trace to spans:
// each solve becomes a "fixpoint.solve" span carrying one "round" event
// per substitution round and the convergence tallies as attributes.
//
// A prepared solver holds its Trace callback across solves (installed at
// Prepare, or on checkout from a core.PreparedSet), while a span exists
// only per solve, so Hook's callback routes every round through the span
// the latest Start opened. Without a span in the Start context the route
// is nil and a round costs a few field stores — no allocation
// (TestFixpointTraceUntracedAllocs). A FixpointTrace serves one solve at
// a time; owners that solve concurrently need one each.
type FixpointTrace struct {
	sp *Span
	// rounds is the buffer the current solve's span records its rounds
	// in: drawn from the tracer's pool at Start, sized to its per-span
	// bound, and given back at End, so a traced solve's rounds allocate
	// only the clipped copy the span keeps.
	rounds *[]round
	// last is the current solve's most recent round; accelerated and
	// damped tally its rounds the way fixpoint.Convergence does.
	last                fixpoint.TraceRecord
	accelerated, damped int
}

// NewFixpointTrace returns a bridge with no solve started.
func NewFixpointTrace() *FixpointTrace {
	return &FixpointTrace{}
}

// Hook returns the callback to install as fixpoint.Options.Trace.
func (f *FixpointTrace) Hook() func(fixpoint.TraceRecord) { return f.round }

func (f *FixpointTrace) round(tr fixpoint.TraceRecord) {
	f.last = tr
	switch {
	case tr.Accelerated:
		f.accelerated++
	case tr.NonFiniteIndex < 0:
		f.damped++
	}
	if f.sp != nil {
		f.sp.Round(tr.Iteration, tr.MaxRelDelta, tr.Accelerated)
	}
}

// Start begins the next solve: it resets the round tally and opens a
// "fixpoint.solve" child of ctx's current span (none when ctx carries no
// span) to receive the rounds.
func (f *FixpointTrace) Start(ctx context.Context, attrs ...Attr) {
	f.last = fixpoint.TraceRecord{NonFiniteIndex: -1}
	f.accelerated, f.damped = 0, 0
	_, f.sp = StartChild(ctx, "fixpoint.solve", attrs...)
	if f.sp != nil {
		f.rounds = f.sp.tr.tracer.roundBuffer()
		f.sp.lendRounds(*f.rounds)
	}
}

// Iterations returns the index of the current solve's last traced round.
// It equals Convergence.Iterations when the solve converges or diverges; a
// solve whose map failed stops one untraced round later.
func (f *FixpointTrace) Iterations() int { return f.last.Iteration }

// End finishes the solve's span, stamped with its tallies: iterations,
// accelerated_rounds, damped_rounds and the final residual, plus
// non_finite_index when a state variable went non-finite.
func (f *FixpointTrace) End() {
	sp := f.sp
	f.sp = nil
	if sp == nil {
		return
	}
	sp.SetAttr("iterations", int64(f.last.Iteration))
	sp.SetAttr("accelerated_rounds", int64(f.accelerated))
	sp.SetAttr("damped_rounds", int64(f.damped))
	sp.SetAttr("residual", f.last.MaxRelDelta)
	if f.last.NonFiniteIndex >= 0 {
		sp.SetAttr("non_finite_index", int64(f.last.NonFiniteIndex))
	}
	sp.End()
	sp.tr.tracer.rounds.Put(f.rounds)
	f.rounds = nil
}
