package core

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kncube/internal/fixpoint"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/bitidentity.golden from the current solvers")

// bitIdentityShape is each variant's shape for the bit-identity digest:
// small enough that a budget-exhausting solve stays cheap, and for ndim
// three dimensions, so the cross-dimension continuation is exercised.
func bitIdentityShape(name string) Spec {
	switch name {
	case "uniform":
		return Spec{K: 8, Dims: 2, V: 3, Lm: 32}
	case "hypercube":
		return Spec{K: 2, Dims: 6, V: 3, Lm: 32, H: 0.3}
	case "ndim":
		return Spec{K: 6, Dims: 3, V: 3, Lm: 32, H: 0.3}
	default:
		return Spec{K: 8, Dims: 2, V: 3, Lm: 32, H: 0.3}
	}
}

// bitIdentityLambdas is a geometric load grid from light load to well past
// every variant's flit capacity at its bitIdentityShape.
func bitIdentityLambdas() []float64 {
	const n, lo, hi = 24, 1e-5, 1e-2
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// bitIdentityDigest solves every registered variant under every blocking
// form and acceleration scheme across the load grid and renders one line
// per solve: the Float64bits of the answer's latency decomposition and the
// convergence summary, or the error text of a refused point.
func bitIdentityDigest(t *testing.T) []string {
	t.Helper()
	forms := []BlockingForm{BlockingVCOccupancy, BlockingMultiServer}
	accels := []fixpoint.Acceleration{fixpoint.AccelNone, fixpoint.AccelAnderson}
	var lines []string
	for _, name := range Solvers() {
		for _, form := range forms {
			for _, accel := range accels {
				o := Options{Blocking: form, FixPoint: fixpoint.Options{
					Tolerance: 1e-9, MaxIterations: 3000, Damping: 0.5, Acceleration: accel,
				}}
				for i, lambda := range bitIdentityLambdas() {
					spec := bitIdentityShape(name)
					spec.Lambda = lambda
					key := fmt.Sprintf("%s form=%d accel=%s lambda[%d]", name, form, accel, i)
					r, err := Solve(name, spec, o)
					if err != nil {
						lines = append(lines, fmt.Sprintf("%s err=%q", key, err.Error()))
						continue
					}
					c := r.Convergence
					lines = append(lines, fmt.Sprintf("%s lat=%016x reg=%016x hot=%016x ws=%016x vbar=%016x it=%d res=%016x acc=%d damp=%d",
						key, math.Float64bits(r.Latency), math.Float64bits(r.Regular), math.Float64bits(r.Hot),
						math.Float64bits(r.SourceWait), math.Float64bits(r.VBar),
						c.Iterations, math.Float64bits(c.Residual), c.AcceleratedRounds, c.DampedRounds))
				}
			}
		}
	}
	return lines
}

// TestBitIdentityGolden pins every solver answer bit for bit: a change to
// the solver's arithmetic or its round structure shows up as a differing
// line. Regenerate with `go test ./internal/core -run TestBitIdentityGolden
// -update` only for a deliberate model change.
func TestBitIdentityGolden(t *testing.T) {
	path := filepath.Join("testdata", "bitidentity.golden")
	got := bitIdentityDigest(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digest has %d entries, golden %d", len(got), len(want))
	}
	diffs := 0
	for i := range got {
		if got[i] != want[i] {
			if diffs < 10 {
				t.Errorf("entry %d differs:\n got  %s\n want %s", i, got[i], want[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d entries differ from the golden digest", diffs, len(got))
	}
}
