// Saturation: map the saturation surface of the hot-spot torus. For a grid
// of hot-spot fractions and message lengths, locate the analytical model's
// saturation rate by bisection and compare it against the hot-channel
// capacity bound 1/(h·k·(k-1)·(Lm+1)) — the last channel into the hot node
// carries nearly all hot-spot traffic, so its flit bandwidth caps the
// sustainable load. This reproduces the reasoning behind the axis ranges of
// the paper's Figures 1 and 2.
package main

import (
	"fmt"
	"log"

	"kncube"
)

func main() {
	const (
		k = 16
		v = 2
	)
	fmt.Printf("saturation rate (messages/node/cycle) on a 16-ary 2-cube, V=%d\n\n", v)
	fmt.Printf("%-8s %-8s %-14s %-14s %-8s\n", "h", "Lm", "model", "capacity", "ratio")

	for _, h := range []float64{0.1, 0.2, 0.4, 0.7, 0.9} {
		for _, lm := range []int{32, 100} {
			sat, err := kncube.SaturationLambda(func(lam float64) error {
				_, err := kncube.Solve("hotspot-2d",
					kncube.ModelSpec{K: k, V: v, Lm: lm, H: h, Lambda: lam},
					kncube.ModelOptions{},
				)
				return err
			}, 1e-8, 0, 1e-3)
			if err != nil {
				log.Fatalf("h=%v lm=%d: %v", h, lm, err)
			}
			capacity := 1 / (h * float64(k) * float64(k-1) * float64(lm+1))
			fmt.Printf("%-8.2f %-8d %-14.3g %-14.3g %-8.2f\n",
				h, lm, sat, capacity, sat/capacity)
		}
	}

	fmt.Println("\nthe model's saturation tracks the hot-channel capacity bound across")
	fmt.Println("two orders of magnitude of offered load — the ordering the paper's")
	fmt.Println("figure axes encode (0.0006 for h=20%, Lm=32 down to 0.00007 for")
	fmt.Println("h=70%, Lm=100).")
}
