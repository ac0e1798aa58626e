// Quickstart: evaluate the analytical hot-spot model and cross-check it
// against the flit-level simulator on the paper's reference configuration
// (16-ary 2-cube, 256 nodes, 2 virtual channels, 32-flit messages, 20%
// hot-spot traffic).
package main

import (
	"fmt"
	"log"

	"kncube"
)

func main() {
	const (
		k      = 16
		v      = 2
		lm     = 32
		h      = 0.2
		lambda = 2e-4 // messages per node per cycle
	)

	// 1. The analytical model (Section 3 of the paper): milliseconds to
	// evaluate.
	model, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: k, V: v, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	fmt.Printf("analytical model:  mean latency %.1f cycles (regular %.1f, hot %.1f)\n",
		model.Latency, model.Regular, model.Hot)

	// 2. The flit-level simulator (Section 4): the validation instrument.
	cube, err := kncube.NewCube(k, 2)
	if err != nil {
		log.Fatal(err)
	}
	hot := cube.FromCoords([]int{k / 2, k / 2})
	pattern, err := kncube.NewHotSpot(cube, hot, h)
	if err != nil {
		log.Fatal(err)
	}
	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: 2, VCs: v, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 20000, MaxCycles: 400000, MinMeasured: 4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation:        mean latency %.1f ± %.1f cycles over %d messages\n",
		res.MeanLatency, res.CI95, res.Measured)
	fmt.Printf("model/sim ratio:   %.3f\n", model.Latency/res.MeanLatency)
}
