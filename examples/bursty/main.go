// Bursty: the paper's stated future work — non-Poissonian traffic. The
// analytical model assumes Poisson generation (assumption (i)); real
// parallel workloads are bursty. This example drives the simulator with a
// two-state MMPP (Markov-modulated Poisson process) whose mean rate equals
// a Poisson baseline, and quantifies how much the Poisson-based model
// underpredicts latency as burstiness grows — the gap the proposed
// extension would need to close.
package main

import (
	"fmt"
	"log"

	"kncube"
)

func main() {
	const (
		k      = 8
		v      = 2
		lm     = 16
		h      = 0.2
		lambda = 2.5e-3 // mean rate for every arrival process below
	)

	cube, err := kncube.NewCube(k, 2)
	if err != nil {
		log.Fatal(err)
	}
	hot := cube.FromCoords([]int{k / 2, k / 2})

	model, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: k, V: v, Lm: lm, H: h, Lambda: lambda},
		kncube.ModelOptions{},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Poisson-based analytical model: %.1f cycles\n\n", model.Latency)
	fmt.Printf("%-22s %-12s %-14s\n", "arrival process", "burstiness", "sim latency")

	run := func(name string, burst float64, factory func(kncube.NodeID) kncube.Arrivals) {
		pattern, err := kncube.NewHotSpot(cube, hot, h)
		if err != nil {
			log.Fatal(err)
		}
		nw, err := kncube.NewSimulator(kncube.SimConfig{
			K: k, Dims: 2, VCs: v, MsgLen: lm,
			Pattern: pattern, ArrivalsFactory: factory, Seed: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := nw.Run(kncube.SimRunOptions{
			WarmupCycles: 20000, MaxCycles: 600000, MinMeasured: 6000,
		})
		if err != nil {
			log.Fatal(err)
		}
		cell := fmt.Sprintf("%.1f ± %.1f", res.MeanLatency, res.CI95)
		if res.Saturated {
			cell += " (saturated)"
		}
		fmt.Printf("%-22s %-12.1f %-14s  model/sim %.2f\n", name, burst, cell, model.Latency/res.MeanLatency)
	}

	run("Poisson", 1, func(kncube.NodeID) kncube.Arrivals {
		a, err := kncube.NewPoisson(lambda)
		if err != nil {
			log.Fatal(err)
		}
		return a
	})

	// MMPP variants with the same mean rate and growing peak-to-mean
	// ratios. Sojourn times are long relative to message service so bursts
	// overlap in the network.
	for _, burst := range []float64{2, 4, 8} {
		rateHigh := lambda * burst
		rateLow := lambda * (2 - burst) // keeps the 50/50 mixture mean at lambda
		if rateLow <= 0 {
			rateLow = lambda / 50
			// Rebalance sojourns so the mean stays lambda:
			// (rh·th + rl·tl)/(th+tl) = lambda with th chosen below.
		}
		b := burst
		run(fmt.Sprintf("MMPP x%g peak", b), b, func(kncube.NodeID) kncube.Arrivals {
			// Solve th/tl from the mean-rate constraint.
			tl := 4000.0
			th := tl * (lambda - rateLow) / (rateHigh - lambda)
			a, err := kncube.NewMMPP(rateHigh, rateLow, th, tl)
			if err != nil {
				log.Fatal(err)
			}
			return a
		})
	}

	fmt.Println("\nwith equal mean load, burstier generation drives the simulated")
	fmt.Println("latency well above the Poisson-based analytical prediction — the")
	fmt.Println("motivation for the non-Poissonian extension in the paper's Section 5.")
}
