package span

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"kncube/internal/fixpoint"
)

// contraction is a 4-variable map with a comfortable fixed point; the
// tolerance sets how many damped rounds a solve takes.
func contraction(in, out []float64) error {
	for i := range in {
		out[i] = 0.5*in[i] + float64(i+1)
	}
	return nil
}

// solveRounds runs one damped solve of contraction through f (nil:
// untraced, no hook installed) and returns its convergence summary.
// Anderson would solve the linear map in a few rounds whatever the
// tolerance, so the solve opts out of it.
func solveRounds(ctx context.Context, t testing.TB, f *FixpointTrace, tol float64) fixpoint.Convergence {
	opts := fixpoint.Options{Tolerance: tol, Acceleration: fixpoint.AccelNone}
	if f != nil {
		opts.Trace = f.Hook()
		f.Start(ctx)
		defer f.End()
	}
	conv, err := fixpoint.Solve(make([]float64, 4), contraction, opts)
	if err != nil {
		t.Fatal(err)
	}
	return conv
}

// TestFixpointTraceRecordsRounds: under a span, a solve becomes one
// fixpoint.solve span with one round per Convergence round, numbered in
// order, and the tallies as attributes.
func TestFixpointTraceRecordsRounds(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, root := tr.Start(context.Background(), "test")
	f := NewFixpointTrace()
	conv := solveRounds(ctx, t, f, 1e-9)
	root.End()

	var fp Record
	for _, r := range ring.Trace(root.TraceID()) {
		if r.Name == "fixpoint.solve" {
			fp = r
		}
	}
	if len(fp.Rounds) != conv.Iterations {
		t.Fatalf("%d rounds, Convergence.Iterations %d", len(fp.Rounds), conv.Iterations)
	}
	for i, r := range fp.Rounds {
		if r.Iteration != int64(i+1) || r.Accelerated ||
			(i > 0 && r.OffsetNano < fp.Rounds[i-1].OffsetNano) {
			t.Fatalf("round %d = %+v", i+1, r)
		}
	}
	want := map[string]any{
		"iterations":         int64(conv.Iterations),
		"accelerated_rounds": int64(conv.AcceleratedRounds),
		"damped_rounds":      int64(conv.DampedRounds),
		"residual":           conv.Residual,
	}
	if len(fp.Attrs) != len(want) {
		t.Errorf("fixpoint.solve attrs = %v, want %v", fp.Attrs, want)
	}
	for k, v := range want {
		if fp.Attrs[k] != v {
			t.Errorf("attr %s = %v, want %v", k, fp.Attrs[k], v)
		}
	}
}

// TestFixpointTraceNonFiniteIndex: a diverging solve stamps the index of
// the variable that went non-finite, and its final round is not counted
// as damped (matching Convergence).
func TestFixpointTraceNonFiniteIndex(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, root := tr.Start(context.Background(), "test")
	f := NewFixpointTrace()
	f.Start(ctx)
	blowUp := func(in, out []float64) error {
		out[0], out[1] = 1, in[1]*1e300+1
		return nil
	}
	conv, err := fixpoint.Solve(make([]float64, 2), blowUp,
		fixpoint.Options{Damping: 1, Trace: f.Hook()})
	f.End()
	root.End()
	if err == nil || !conv.Diverged {
		t.Fatalf("solve did not diverge: %+v, %v", conv, err)
	}
	fp := ring.Trace(root.TraceID())[0]
	if fp.Attrs["non_finite_index"] != int64(conv.NonFiniteIndex) ||
		fp.Attrs["damped_rounds"] != int64(conv.DampedRounds) ||
		fp.Attrs["iterations"] != int64(conv.Iterations) {
		t.Errorf("attrs %v, Convergence %+v", fp.Attrs, conv)
	}
	if math.IsNaN(fp.Attrs["residual"].(float64)) {
		t.Errorf("residual attr is NaN")
	}
}

// TestFixpointTraceUntracedAllocs pins the cost of the bridge when no span
// is in the context (CLI runs without -span-out, untraced requests): a
// constant few allocations per solve over a bare, hook-free solve, and
// none per round — the overhead must not grow with the round count.
func TestFixpointTraceUntracedAllocs(t *testing.T) {
	f := NewFixpointTrace()
	ctx := context.Background()
	overhead := func(tol float64) float64 {
		bare := testing.AllocsPerRun(50, func() { solveRounds(ctx, t, nil, tol) })
		hooked := testing.AllocsPerRun(50, func() { solveRounds(ctx, t, f, tol) })
		return hooked - bare
	}
	few, many := overhead(1e-2), overhead(1e-12)
	if few < 0 || few > 2 {
		t.Errorf("untraced bridge adds %v allocs per solve, want at most 2", few)
	}
	if int(few) != int(many) {
		t.Errorf("untraced bridge allocations grow with rounds: %v at loose tolerance, %v at tight", few, many)
	}
	if n := solveRounds(ctx, t, nil, 1e-12).Iterations; n <= 2*solveRounds(ctx, t, nil, 1e-2).Iterations {
		t.Fatalf("tolerances do not separate the round counts (%d rounds at tight tolerance)", n)
	}
}

// TestFixpointTraceTracedAllocs pins the cost of a traced solve: a round
// is a few stores into the span's pointer-free rounds slice, so the
// allocations a trace adds over a bare solve grow with the round count
// only by the slice's doublings — logarithmically, where boxed attributes
// and a map per round once added about four per round (77 at 13 rounds,
// 400 at 93).
func TestFixpointTraceTracedAllocs(t *testing.T) {
	f := NewFixpointTrace()
	tr := New(Config{Seed: 1, MaxEventsPerSpan: 1 << 12})
	overhead := func(tol float64) (rounds int, allocs float64) {
		bg := context.Background()
		bare := testing.AllocsPerRun(50, func() { solveRounds(bg, t, nil, tol) })
		traced := testing.AllocsPerRun(50, func() {
			ctx, root := tr.Start(bg, "root")
			solveRounds(ctx, t, f, tol)
			root.End()
		})
		return solveRounds(bg, t, nil, tol).Iterations, traced - bare
	}
	nFew, few := overhead(1e-2)
	nMany, many := overhead(1e-12)
	if nMany < 4*nFew {
		t.Fatalf("tolerances do not separate the round counts (%d and %d rounds)", nFew, nMany)
	}
	t.Logf("traced solve adds %v allocs at %d rounds, %v at %d", few, nFew, many, nMany)
	// Appending n rounds to a nil slice allocates bits.Len(n-1)+1 times.
	growth := float64(bits.Len(uint(nMany-1)) - bits.Len(uint(nFew-1)))
	if many-few > growth {
		t.Errorf("traced solve adds %v allocs at %d rounds and %v at %d: grows by %v, slice growth explains %v",
			few, nFew, many, nMany, many-few, growth)
	}
}

// TestFixpointSpanRoundsAllocateOnce: a FixpointTrace lends each solve's
// span a rounds buffer from the tracer's pool, sized to its bound, so a
// traced solve's allocations do not grow with its round count, and its
// rounds cost the span two allocations over a traced solve that records
// none: the clipped copy End retains and the header that holds it.
func TestFixpointSpanRoundsAllocateOnce(t *testing.T) {
	f := NewFixpointTrace()
	tr := New(Config{Seed: 1, MaxEventsPerSpan: 1 << 12})
	bg := context.Background()
	traced := func(f *FixpointTrace, tol float64) int {
		return int(testing.AllocsPerRun(50, func() {
			ctx, root := tr.Start(bg, "root")
			solveRounds(ctx, t, f, tol)
			root.End()
		}))
	}
	nFew, nMany := solveRounds(bg, t, nil, 1e-2).Iterations, solveRounds(bg, t, nil, 1e-12).Iterations
	few, many := traced(f, 1e-2), traced(f, 1e-12)
	if many != few {
		t.Errorf("a traced solve allocates %d times at %d rounds and %d at %d; want no growth", few, nFew, many, nMany)
	}
	// The rounds alone, fed through the hook: none against some.
	rounds := func(n int) int {
		return int(testing.AllocsPerRun(50, func() {
			ctx, root := tr.Start(bg, "root")
			f.Start(ctx)
			for i := 1; i <= n; i++ {
				f.round(fixpoint.TraceRecord{Iteration: i, NonFiniteIndex: -1})
			}
			f.End()
			root.End()
		}))
	}
	if none, some := rounds(0), rounds(nMany); some-none != 2 {
		t.Errorf("%d rounds cost their span %d allocations, want 2 (the retained copy and its header)", nMany, some-none)
	}
}
