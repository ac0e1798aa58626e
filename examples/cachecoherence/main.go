// Cachecoherence: the write-invalidation scenario from the paper's
// introduction. A home node invalidates a widely-shared cache block; every
// sharer sends an acknowledgement back to the home node, producing a burst
// of hot-spot traffic aimed at it.
//
// This example uses the simulator's delivery callbacks to measure the
// acknowledgement-collection time (the time until the home node has
// received all N-1 acknowledgements) as a function of the background load,
// and compares the mean acknowledgement latency against the analytical
// model evaluated at the equivalent hot-spot fraction.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"kncube"
)

const (
	k      = 8
	v      = 2
	lm     = 4 // acknowledgements are tiny control messages
	lambda = 2e-3
)

// ackPattern mixes a uniform background with one acknowledgement from each
// node, released once, toward the home node.
type ackPattern struct {
	uniform kncube.Pattern
	home    kncube.NodeID
	pending map[kncube.NodeID]bool
}

func (a *ackPattern) Destination(src kncube.NodeID, rng *rand.Rand) kncube.NodeID {
	if a.pending[src] {
		delete(a.pending, src)
		return a.home
	}
	return a.uniform.Destination(src, rng)
}

func (a *ackPattern) String() string { return "write-invalidate acks" }

func main() {
	cube, err := kncube.NewCube(k, 2)
	if err != nil {
		log.Fatal(err)
	}
	home := cube.FromCoords([]int{1, 2})
	n := cube.Nodes()

	pending := map[kncube.NodeID]bool{}
	for id := 0; id < n; id++ {
		if kncube.NodeID(id) != home {
			pending[kncube.NodeID(id)] = true
		}
	}
	pattern := &ackPattern{uniform: kncube.UniformPattern(cube), home: home, pending: pending}

	nw, err := kncube.NewSimulator(kncube.SimConfig{
		K: k, Dims: 2, VCs: v, MsgLen: lm, Lambda: lambda,
		Pattern: pattern, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	acks := 0
	var lastAck, sumAck int64
	nw.OnDeliver(func(m *kncube.Message) {
		if m.Dst == home {
			acks++
			sumAck += m.Latency()
			if m.DeliverCycle > lastAck {
				lastAck = m.DeliverCycle
			}
		}
	})
	for nwDone := false; !nwDone; {
		nw.Step()
		nwDone = acks >= n-1 || nw.Cycle() > 200000
	}
	if acks < n-1 {
		log.Fatalf("only %d/%d acknowledgements arrived", acks, n-1)
	}
	fmt.Printf("write-invalidation on %v, home node %d\n", cube, home)
	fmt.Printf("acknowledgements collected: %d\n", acks)
	fmt.Printf("collection finished at cycle %d\n", lastAck)
	fmt.Printf("mean acknowledgement latency: %.1f cycles\n", float64(sumAck)/float64(acks))

	// The equivalent steady-state hot-spot fraction for the model: every
	// node sent exactly one extra message to the home node during the
	// collection window.
	window := float64(lastAck)
	hEq := 1.0 / (1.0 + lambda*window) // ack vs background messages per node
	m, err := kncube.Solve("hotspot-2d",
		kncube.ModelSpec{K: k, V: v, Lm: lm, H: hEq, Lambda: lambda * (1 + 1/(lambda*window))},
		kncube.ModelOptions{},
	)
	if err != nil {
		fmt.Printf("model at equivalent h=%.2f: saturated (%v)\n", hEq, err)
		return
	}
	fmt.Printf("model at equivalent h=%.2f: hot-spot latency %.1f cycles\n", hEq, m.Hot)
}
