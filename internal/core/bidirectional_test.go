package core

import (
	"errors"
	"math"
	"testing"
)

func TestBiValidation(t *testing.T) {
	if _, err := Solve("bidirectional-2d", Spec{}, Options{}); err == nil {
		t.Error("zero params accepted")
	}
}

func TestBiZeroLoadGeometry(t *testing.T) {
	// k=16 bidirectional: mean min ring distance = 4, mean path 8.
	p := Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-9}
	r := mustSolve(t, "bidirectional-2d", p, Options{})
	wantReg := 32.0 + 8
	if math.Abs(r.Regular-wantReg) > 1.0 {
		t.Errorf("zero-load regular %v, want ~%v", r.Regular, wantReg)
	}
	// Hot zero-load: Lm + mean bidirectional distance to the hot node.
	sum, cnt := 0.0, 0
	k := 16
	minD := func(f int) int {
		if k-f < f {
			return k - f
		}
		return f
	}
	for fx := 0; fx < k; fx++ {
		for fy := 0; fy < k; fy++ {
			if fx == 0 && fy == 0 {
				continue
			}
			sum += float64(minD(fx) + minD(fy))
			cnt++
		}
	}
	wantHot := 32 + sum/float64(cnt)
	if math.Abs(r.Hot-wantHot) > 1.0 {
		t.Errorf("zero-load hot %v, want ~%v", r.Hot, wantHot)
	}
}

func TestBiZeroLoadBelowUnidirectional(t *testing.T) {
	p := Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-6}
	bi := mustSolve(t, "bidirectional-2d", p, Options{})
	uni := mustSolve(t, "hotspot-2d", p, Options{})
	if bi.Latency >= uni.Latency {
		t.Errorf("bidirectional %v not below unidirectional %v", bi.Latency, uni.Latency)
	}
}

func TestBiMonotoneInLambda(t *testing.T) {
	prev := 0.0
	for _, lam := range []float64{1e-5, 1e-4, 3e-4, 6e-4, 9e-4} {
		r := mustSolve(t, "bidirectional-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: lam}, Options{})
		if r.Latency <= prev {
			t.Fatalf("latency not increasing at %v", lam)
		}
		prev = r.Latency
	}
}

func TestBiSaturatesLaterThanUnidirectional(t *testing.T) {
	// Bidirectional links halve the hot column's per-channel load, so the
	// saturation rate must be roughly twice the unidirectional one.
	sat := func(solve func(lam float64) error) float64 {
		s, err := SaturationLambda(solve, 1e-7, 0, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p := func(lam float64) Spec {
		return Spec{K: 16, V: 2, Lm: 32, H: 0.4, Lambda: lam}
	}
	uni := sat(func(lam float64) error { _, err := Solve("hotspot-2d", p(lam), Options{}); return err })
	bi := sat(func(lam float64) error { _, err := Solve("bidirectional-2d", p(lam), Options{}); return err })
	if bi <= uni {
		t.Fatalf("bidirectional saturation %v not above unidirectional %v", bi, uni)
	}
	if ratio := bi / uni; ratio < 1.4 || ratio > 3.0 {
		t.Errorf("saturation ratio %v, want roughly 2", ratio)
	}
}

func TestBiSaturationDetected(t *testing.T) {
	_, err := Solve("bidirectional-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.4, Lambda: 0.01}, Options{})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

func TestBiSmallRadixes(t *testing.T) {
	// k=2 has an empty negative direction class; k=3 has symmetric ones.
	for _, k := range []int{2, 3, 4, 5} {
		r := mustSolve(t, "bidirectional-2d", Spec{K: k, V: 2, Lm: 8, H: 0.3, Lambda: 1e-3}, Options{})
		if r.Latency < 8 || math.IsNaN(r.Latency) {
			t.Errorf("k=%d latency %v", k, r.Latency)
		}
	}
}

func TestBiHotAboveRegularUnderLoad(t *testing.T) {
	r := mustSolve(t, "bidirectional-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.4, Lambda: 4e-4}, Options{})
	if r.Hot <= r.Regular {
		t.Errorf("hot %v not above regular %v", r.Hot, r.Regular)
	}
}

func TestBiMultiplexingBounds(t *testing.T) {
	vX, vHy := biClassDegrees(solvedState(t, "bidirectional-2d", Spec{K: 16, V: 3, Lm: 32, H: 0.4, Lambda: 4e-4}))
	for _, v := range []float64{vX, vHy} {
		if v < 1 || v > 3 {
			t.Errorf("multiplexing degree %v outside [1,3]", v)
		}
	}
	if vHy < vX {
		t.Errorf("hot-column multiplexing %v below x %v", vHy, vX)
	}
}

// biClassDegrees returns a solved bidirectional-2d solver's mean
// multiplexing degrees over the x-channels and over the hot-column
// channels (both directions pooled), read from the assembly's
// per-channel scratch.
func biClassDegrees(ps *PreparedSolver) (vX, vHy float64) {
	m := ps.s.(*biModel)
	k := m.s.K
	for i := 0; i < 2; i++ {
		for l := 1; l <= k; l++ {
			vHy += m.vHyAt[i][l]
			for r := range m.rows {
				vX += m.vXAt[i][r][l]
			}
		}
	}
	return vX / float64(len(m.rows)*2*k), vHy / float64(2*k)
}
