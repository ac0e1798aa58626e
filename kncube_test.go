package kncube_test

// Integration tests exercising the public facade end to end: the analytical
// model against the flit-level simulator, the way the paper's Section 4
// validates its model.

import (
	"errors"
	"math"
	"testing"

	"kncube"
)

func TestFacadeModelSolves(t *testing.T) {
	res, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4},
		kncube.ModelOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < 47 || res.Latency > 100 {
		t.Errorf("latency %v outside plausible band", res.Latency)
	}
}

func TestFacadeSaturationError(t *testing.T) {
	_, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.01},
		kncube.ModelOptions{},
	)
	if !errors.Is(err, kncube.ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

// runPoint runs model and simulator at one operating point on a small
// torus.
func runPoint(t *testing.T, k, v, lm int, h, lambda float64) (model float64, sim kncube.SimResult) {
	t.Helper()
	m, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: k, V: v, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	cube, err := kncube.NewCube(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := kncube.NewHotSpot(cube, cube.FromCoords([]int{k / 2, k / 2}), h)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: 2, VCs: v, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 5000, MaxCycles: 400000, MinMeasured: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.Latency, res
}

func TestModelTracksSimulationAtLightLoad(t *testing.T) {
	// The paper's central validation claim: model ≈ simulation in the
	// light-load region. 10% tolerance on a small torus.
	cases := []struct {
		k, lm  int
		h      float64
		lambda float64
	}{
		{8, 16, 0.2, 5e-4},
		{8, 16, 0.4, 3e-4},
		{8, 32, 0.2, 3e-4},
		{4, 8, 0.3, 2e-3},
	}
	for _, c := range cases {
		model, sim := runPoint(t, c.k, 2, c.lm, c.h, c.lambda)
		rel := math.Abs(model-sim.MeanLatency) / sim.MeanLatency
		if rel > 0.10 {
			t.Errorf("k=%d lm=%d h=%v lambda=%v: model %v vs sim %v (rel err %.2f)",
				c.k, c.lm, c.h, c.lambda, model, sim.MeanLatency, rel)
		}
	}
}

func TestModelConservativeAtModerateLoad(t *testing.T) {
	// Toward the knee the calibrated model stays finite and errs on the
	// conservative (high) side without losing the order of magnitude.
	model, sim := runPoint(t, 8, 2, 16, 0.3, 1.5e-3)
	if sim.Saturated {
		t.Fatalf("simulation unexpectedly saturated: %+v", sim)
	}
	if model < 0.8*sim.MeanLatency {
		t.Errorf("model %v more than 20%% below simulation %v", model, sim.MeanLatency)
	}
	if model > 5*sim.MeanLatency {
		t.Errorf("model %v more than 5x simulation %v", model, sim.MeanLatency)
	}
}

func TestSaturationOrderingMatchesSimulator(t *testing.T) {
	// Model saturation rates must be ordered like the simulator's knees:
	// higher h saturates earlier.
	sat := func(h float64) float64 {
		s, err := kncube.SaturationLambda(func(lam float64) error {
			_, err := kncube.Solve("hotspot-2d",
				kncube.ModelSpec{K: 8, V: 2, Lm: 16, H: h, Lambda: lam},
				kncube.ModelOptions{},
			)
			return err
		}, 1e-6, 0, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s2, s5, s8 := sat(0.2), sat(0.5), sat(0.8)
	if !(s2 > s5 && s5 > s8) {
		t.Fatalf("saturation not decreasing in h: %v %v %v", s2, s5, s8)
	}
	// And the simulator must still be stable somewhat below the model's
	// saturation point, and congested above it.
	below := s5 * 0.5
	cube, _ := kncube.NewCube(8, 2)
	pattern, _ := kncube.NewHotSpot(cube, 36, 0.5)
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: below, Pattern: pattern, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{WarmupCycles: 5000, MaxCycles: 300000, MinMeasured: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Errorf("simulator saturated at half the model's saturation rate %v", s5)
	}
}

func TestBidirectionalModelTracksSimulator(t *testing.T) {
	// The bidirectional extension validated the same way as the main
	// model: against the (bidirectional) simulator at light load.
	cases := []struct {
		k, lm  int
		h      float64
		lambda float64
	}{
		{8, 16, 0.3, 1e-3},
		{8, 32, 0.2, 6e-4},
		{9, 16, 0.4, 8e-4}, // odd radix: symmetric direction classes
	}
	for _, c := range cases {
		m, err := kncube.Solve("bidirectional-2d",
			kncube.ModelSpec{K: c.k, V: 2, Lm: c.lm, H: c.h, Lambda: c.lambda},
			kncube.ModelOptions{},
		)
		if err != nil {
			t.Fatalf("bi model k=%d: %v", c.k, err)
		}
		cube, err := kncube.NewCube(c.k, 2)
		if err != nil {
			t.Fatal(err)
		}
		pattern, err := kncube.NewHotSpot(cube, cube.FromCoords([]int{c.k / 2, c.k / 2}), c.h)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := kncube.NewSimulator(kncube.SimConfig{
			K: c.k, Dims: 2, VCs: 2, MsgLen: c.lm, Lambda: c.lambda,
			Pattern: pattern, Seed: 23, Bidirectional: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Run(kncube.SimRunOptions{
			WarmupCycles: 5000, MaxCycles: 400000, MinMeasured: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(m.Latency-res.MeanLatency) / res.MeanLatency
		if rel > 0.12 {
			t.Errorf("k=%d lm=%d h=%v lambda=%v: bi model %v vs sim %v (rel %.2f)",
				c.k, c.lm, c.h, c.lambda, m.Latency, res.MeanLatency, rel)
		}
	}
}

func TestNDimModelTracksSimulatorThreeDims(t *testing.T) {
	// The general-n model against the simulator on a 3-D torus (the
	// machines the paper's introduction motivates).
	const (
		k      = 6 // 216 nodes
		lm     = 16
		h      = 0.25
		lambda = 3e-4
	)
	m, err := kncube.Solve("ndim",
		kncube.ModelSpec{K: k, Dims: 3, V: 2, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := kncube.NewCube(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := kncube.NewHotSpot(cube, cube.FromCoords([]int{3, 3, 3}), h)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: 3, VCs: 2, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 5000, MaxCycles: 300000, MinMeasured: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(m.Latency-res.MeanLatency) / res.MeanLatency
	if rel > 0.12 {
		t.Errorf("3-D model %v vs sim %v (rel %.2f)", m.Latency, res.MeanLatency, rel)
	}
	// Percentiles are ordered and bracket the mean sensibly.
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyP99) {
		t.Errorf("percentiles unordered: %v %v %v", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	if res.LatencyP50 < float64(lm) || res.LatencyP99 > 100*res.MeanLatency {
		t.Errorf("implausible percentiles: p50=%v p99=%v mean=%v",
			res.LatencyP50, res.LatencyP99, res.MeanLatency)
	}
}

func TestHypercubeModelTracksSimulator(t *testing.T) {
	// The hypercube baseline model [12] against the simulator configured
	// as a 2-ary n-cube.
	const (
		n      = 7 // 128 nodes
		lm     = 16
		h      = 0.2
		lambda = 8e-4
	)
	m, err := kncube.Solve("hypercube",
		kncube.ModelSpec{Dims: n, V: 2, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := kncube.NewCube(2, n)
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := kncube.NewHotSpot(cube, 37, h)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: 2, Dims: n, VCs: 2, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 5000, MaxCycles: 300000, MinMeasured: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(m.Latency-res.MeanLatency) / res.MeanLatency
	if rel > 0.15 {
		t.Errorf("hypercube model %v vs sim %v (rel %.2f)", m.Latency, res.MeanLatency, rel)
	}
}

func TestUniformBaselineMatchesSimulator(t *testing.T) {
	u, err := kncube.Solve("uniform", kncube.ModelSpec{K: 8, Dims: 2, V: 2, Lm: 16, Lambda: 1e-3}, kncube.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, _ := kncube.NewCube(8, 2)
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: 1e-3,
		Pattern: kncube.UniformPattern(cube), Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{WarmupCycles: 5000, MaxCycles: 300000, MinMeasured: 4000})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(u.Latency-res.MeanLatency) / res.MeanLatency
	if rel > 0.10 {
		t.Errorf("uniform baseline %v vs sim %v (rel %.2f)", u.Latency, res.MeanLatency, rel)
	}
}

func TestHotSpotPositionIrrelevantInSimulator(t *testing.T) {
	// On a torus the hot node's location must not matter (the model
	// implicitly assumes this).
	run := func(hot kncube.NodeID) float64 {
		cube, _ := kncube.NewCube(8, 2)
		pattern, err := kncube.NewHotSpot(cube, hot, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := kncube.NewSimulator(kncube.SimConfig{
			K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: 5e-4,
			Pattern: pattern, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Run(kncube.SimRunOptions{WarmupCycles: 5000, MaxCycles: 300000, MinMeasured: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	a, b := run(0), run(43)
	if math.Abs(a-b)/a > 0.05 {
		t.Errorf("hot node position changed latency: %v vs %v", a, b)
	}
}

func TestSimulatorHotRingRatesMatchModelEquations(t *testing.T) {
	// Eqs. 3-7 in vivo: measured flit rates on the hot column's channels
	// must match the analytic channel rates. k=8, moderate load.
	const (
		k      = 8
		lm     = 16
		h      = 0.4
		lambda = 5e-4
	)
	cube, _ := kncube.NewCube(k, 2)
	hot := cube.FromCoords([]int{3, 5})
	pattern, _ := kncube.NewHotSpot(cube, hot, h)
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: 2, VCs: 2, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(kncube.SimRunOptions{WarmupCycles: 0, MaxCycles: 2000000, MinMeasured: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	cycles := float64(nw.Cycle())

	// Walk the hot column: the outgoing y-channel of the node j hops
	// before the hot node carries lambda_r + lambda*h*k*(k-j) messages
	// (with the simulator's uniform component including the hot node, the
	// hot-directed extra rate is h' = h + (1-h)/(N-1) in excess of
	// uniform... we test against the dominant Eq. 7 shape with 15%
	// tolerance).
	lr := lambda * (1 - h) * float64(k-1) / 2
	for j := 1; j <= k-1; j++ {
		// Node at y-distance j from hot node, same column.
		coords := cube.Coords(hot)
		y := (coords[1] - j + k) % k
		node := cube.FromCoords([]int{coords[0], y})
		flits := float64(nw.ChannelFlits(int(node), 1))
		msgRate := flits / cycles / float64(lm)
		want := lr + lambda*h*float64(k)*float64(k-j)
		if math.Abs(msgRate-want)/want > 0.15 {
			t.Errorf("hot ring channel j=%d: measured rate %.6f, Eq. 7 gives %.6f",
				j, msgRate, want)
		}
	}
}
