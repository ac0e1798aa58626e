// Torus3d: the paper's introduction motivates its model with the 2-D and
// 3-D tori of practical machines (Cray T3D/T3E, SGI Origin). The published
// analysis covers n = 2; this example uses the repository's general k-ary
// n-cube model ("ndim") on an 8x8x8 torus under hot-spot traffic and
// validates it against the flit-level simulator, then contrasts the 2-D
// and 3-D organisations of a 512-node machine at equal bisection load.
package main

import (
	"fmt"
	"log"

	"kncube"
)

func main() {
	const (
		k      = 8
		n      = 3
		v      = 2
		lm     = 16
		h      = 0.25
		lambda = 1e-4
	)

	model, err := kncube.Solve("ndim",
		kncube.ModelSpec{K: k, Dims: n, V: v, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-ary 3-cube (512 nodes), h=%.0f%%, lambda=%g\n", h*100, lambda)
	fmt.Printf("model:      %.1f cycles (regular %.1f, hot %.1f)\n",
		model.Latency, model.Regular, model.Hot)

	cube, err := kncube.NewCube(k, n)
	if err != nil {
		log.Fatal(err)
	}
	pattern, err := kncube.NewHotSpot(cube, cube.FromCoords([]int{4, 4, 4}), h)
	if err != nil {
		log.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: n, VCs: v, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 10000, MaxCycles: 300000, MinMeasured: 4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation: %.1f ± %.1f cycles (p50 %.0f, p95 %.0f, p99 %.0f)\n",
		res.MeanLatency, res.CI95, res.LatencyP50, res.LatencyP95, res.LatencyP99)
	fmt.Printf("model/sim:  %.3f\n\n", model.Latency/res.MeanLatency)

	// 512 nodes as a 2-D torus instead: longer paths, earlier hot-spot
	// saturation (the hot column aggregates k(k-1) sources instead of the
	// hot tree spreading over three dimensions).
	sat3, err := kncube.SaturationLambda(func(lam float64) error {
		_, err := kncube.Solve("ndim", kncube.ModelSpec{K: 8, Dims: 3, V: v, Lm: lm, H: h, Lambda: lam}, kncube.ModelOptions{})
		return err
	}, 1e-8, 0, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	// 512 nodes have no square 2-D torus; compare the classic 16x16 (256
	// nodes) and 23x23 (529 nodes) brackets via the 2-D model.
	sat2, err := kncube.SaturationLambda(func(lam float64) error {
		_, err := kncube.Solve("hotspot-2d", kncube.ModelSpec{K: 23, V: v, Lm: lm, H: h, Lambda: lam}, kncube.ModelOptions{})
		return err
	}, 1e-9, 0, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot-spot saturation, 8x8x8 torus:  %.3g msgs/node/cycle\n", sat3)
	fmt.Printf("hot-spot saturation, 23x23 torus:  %.3g msgs/node/cycle\n", sat2)
	fmt.Println("\nthe 3-D organisation sustains a higher per-node hot-spot load: its")
	fmt.Println("hot tree splits the funnel-in over three dimensions, while the 2-D")
	fmt.Println("torus concentrates nearly all of it on the hot column.")
}
