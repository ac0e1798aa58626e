package kncube_test

// Godoc examples with verified output. The model is deterministic, the
// simulator seeded, so both print stable values.

import (
	"errors"
	"fmt"

	"kncube"
)

func ExampleSolve() {
	res, err := kncube.Solve("hotspot-2d", kncube.ModelSpec{
		K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4,
	}, kncube.ModelOptions{})
	if err != nil {
		fmt.Println("saturated:", err)
		return
	}
	fmt.Printf("latency %.0f cycles (regular %.0f, hot %.0f)\n",
		res.Latency, res.Regular, res.Hot)
	// Output:
	// latency 51 cycles (regular 50, hot 55)
}

func ExampleSolve_saturated() {
	_, err := kncube.Solve("hotspot-2d", kncube.ModelSpec{
		K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 0.01,
	}, kncube.ModelOptions{})
	fmt.Println(errors.Is(err, kncube.ErrSaturated))
	// Output:
	// true
}

func ExampleSolve_uniform() {
	res, err := kncube.Solve("uniform", kncube.ModelSpec{
		K: 16, V: 2, Lm: 32, Lambda: 1e-3,
	}, kncube.ModelOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("latency %.0f cycles (source wait %.1f, V̄ %.2f, max utilisation %.2f)\n",
		res.Latency, res.SourceWait, res.VBar, res.MaxUtilisation)
	// Output:
	// latency 118 cycles (source wait 1.6, V̄ 1.68, max utilisation 0.51)
}

func ExampleNewSimulator() {
	cube, _ := kncube.NewCube(8, 2)
	pattern, _ := kncube.NewHotSpot(cube, cube.FromCoords([]int{4, 4}), 0.3)
	nw, _ := kncube.NewSimulator(kncube.SimConfig{
		K: 8, Dims: 2, VCs: 2, MsgLen: 16, Lambda: 5e-4,
		Pattern: pattern, Seed: 1,
	})
	res, _ := nw.Run(kncube.SimRunOptions{
		WarmupCycles: 5000, MaxCycles: 200000, MinMeasured: 2000,
	})
	fmt.Println(res.Measured >= 2000, res.Saturated)
	// Output:
	// true false
}

func ExampleSaturationLambda() {
	sat, _ := kncube.SaturationLambda(func(lambda float64) error {
		_, err := kncube.Solve("hotspot-2d", kncube.ModelSpec{
			K: 16, V: 2, Lm: 32, H: 0.4, Lambda: lambda,
		}, kncube.ModelOptions{})
		return err
	}, 1e-6, 0, 1e-3)
	fmt.Printf("saturation near %.1e msgs/node/cycle\n", sat)
	// Output:
	// saturation near 3.0e-04 msgs/node/cycle
}
