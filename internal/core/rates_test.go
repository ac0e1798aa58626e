package core

import (
	"math"
	"testing"

	"kncube/internal/topology"

	"kncube/internal/stats"
)

func TestRatesValidation(t *testing.T) {
	if _, err := Rates(Spec{}); err == nil {
		t.Error("Rates accepted zero params")
	}
}

func TestRatesMatchEquations(t *testing.T) {
	p := Spec{K: 8, V: 2, Lm: 16, H: 0.3, Lambda: 1e-3}
	r, err := Rates(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Regular, 1e-3*0.7*3.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("Regular = %v, want %v", got, want)
	}
	for j := 1; j <= 8; j++ {
		wantY := 1e-3 * 0.3 * 8 * float64(8-j)
		if math.Abs(r.HotY[j]-wantY) > 1e-15 {
			t.Errorf("HotY[%d] = %v, want %v", j, r.HotY[j], wantY)
		}
		wantX := 1e-3 * 0.3 * float64(8-j)
		if math.Abs(r.HotX[j]-wantX) > 1e-15 {
			t.Errorf("HotX[%d] = %v, want %v", j, r.HotX[j], wantX)
		}
	}
	if !stats.IsZero(r.HotY[8]) || !stats.IsZero(r.HotX[8]) {
		t.Error("channels leaving the hot node/column must carry no hot traffic")
	}
}

func TestRatesMatchBruteForceCrossingCounts(t *testing.T) {
	// Eqs. 4-7 against exhaustive path counting on the topology: the rate
	// on a channel equals lambda·h times the number of sources whose
	// deterministic path crosses it.
	for _, k := range []int{3, 4, 8} {
		p := Spec{K: k, V: 2, Lm: 8, H: 0.25, Lambda: 2e-3}
		r, err := Rates(p)
		if err != nil {
			t.Fatal(err)
		}
		cube := topology.MustNew(k, 2)
		hs := topology.HotSpot{Cube: cube, Node: cube.FromCoords([]int{1, 2})}
		for j := 1; j <= k; j++ {
			crossY := hs.SourcesCrossingHotYChannel(j)
			wantY := p.Lambda * p.H * float64(crossY)
			if math.Abs(r.HotY[j]-wantY) > 1e-15 {
				t.Errorf("k=%d HotY[%d] = %v, brute force %v", k, j, r.HotY[j], wantY)
			}
			crossX := hs.SourcesCrossingXChannel(cube.FromCoords([]int{0, 0}), j)
			wantX := p.Lambda * p.H * float64(crossX)
			if math.Abs(r.HotX[j]-wantX) > 1e-15 {
				t.Errorf("k=%d HotX[%d] = %v, brute force %v", k, j, r.HotX[j], wantX)
			}
		}
	}
}

func TestRatesConservation(t *testing.T) {
	// Total hot y-channel crossings must equal the sum over sources of
	// their y-distance to the hot node.
	p := Spec{K: 8, V: 2, Lm: 16, H: 0.3, Lambda: 1e-3}
	r, err := Rates(p)
	if err != nil {
		t.Fatal(err)
	}
	got := r.TotalHotYCrossings(p.Lambda, p.H)
	cube := topology.MustNew(8, 2)
	hs := topology.HotSpot{Cube: cube, Node: 0}
	want := 0
	for id := topology.NodeID(0); int(id) < cube.Nodes(); id++ {
		if id != hs.Node {
			want += hs.HotPathYHops(id)
		}
	}
	if math.Abs(got-float64(want)) > 1e-9 {
		t.Errorf("total y crossings %v, want %d", got, want)
	}
}

func TestBottleneckUtilisation(t *testing.T) {
	p := Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}
	r, err := Rates(p)
	if err != nil {
		t.Fatal(err)
	}
	// (lambda_r + lambda_hy[1])·Lm.
	want := (1e-4*0.8*7.5 + 1e-4*0.2*16*15) * 32
	if math.Abs(r.BottleneckUtilisation(32)-want) > 1e-12 {
		t.Errorf("bottleneck utilisation %v, want %v", r.BottleneckUtilisation(32), want)
	}
	if !stats.IsZero((ChannelRates{}).BottleneckUtilisation(32)) {
		t.Error("empty rates should report 0")
	}
}

func TestCapacityLambdaOrdering(t *testing.T) {
	// Capacity falls with h and with Lm, and roughly matches the paper's
	// figure axis maxima.
	c2032 := CapacityLambda(16, 32, 0.2)
	c4032 := CapacityLambda(16, 32, 0.4)
	c7032 := CapacityLambda(16, 32, 0.7)
	c20100 := CapacityLambda(16, 100, 0.2)
	if !(c2032 > c4032 && c4032 > c7032) {
		t.Errorf("capacity not decreasing in h: %v %v %v", c2032, c4032, c7032)
	}
	if c20100 >= c2032 {
		t.Errorf("capacity not decreasing in Lm: %v vs %v", c20100, c2032)
	}
	// Figure 1 h=20% axis ends at 6e-4; capacity must be within ~20%.
	if c2032 < 4.8e-4 || c2032 > 7.2e-4 {
		t.Errorf("h=20%%/Lm=32 capacity %v far from the paper's 6e-4 axis", c2032)
	}
}

func TestSaturationNearCapacityAcrossGrid(t *testing.T) {
	// The model's bisected saturation must land within [35%, 105%] of the
	// analytic capacity bound for a grid of (h, Lm).
	for _, h := range []float64{0.2, 0.5, 0.8} {
		for _, lm := range []int{16, 64} {
			capacity := CapacityLambda(16, lm, h)
			sat, err := SaturationLambda(func(lam float64) error {
				_, e := Solve("hotspot-2d", Spec{K: 16, V: 2, Lm: lm, H: h, Lambda: lam}, Options{})
				return e
			}, capacity/100, 0, 1e-3)
			if err != nil {
				t.Fatalf("h=%v lm=%d: %v", h, lm, err)
			}
			ratio := sat / capacity
			if ratio < 0.35 || ratio > 1.05 {
				t.Errorf("h=%v lm=%d: saturation %v = %.2f of capacity %v",
					h, lm, sat, ratio, capacity)
			}
		}
	}
}
