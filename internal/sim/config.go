// Package sim is a flit-level, cycle-accurate simulator of wormhole-switched
// k-ary n-cubes with deterministic dimension-order routing and virtual-channel
// flow control. It reproduces the validation substrate of Loucif, Ould-Khaoua,
// Min (IPDPS 2005), Section 4: "a discrete event simulator, operating at the
// flit level", with the router organisation of Section 2:
//
//   - unidirectional channels, one per dimension per node, plus an injection
//     and an ejection channel per node;
//   - V virtual channels per physical channel, each with its own flit buffer,
//     time-multiplexing the physical link flit by flit (Dally's VC flow
//     control), arbitrated round-robin;
//   - deterministic routing crossing dimension 0 (x) first, then dimension 1
//     (y), with Dally-Seitz virtual-channel classes for deadlock freedom on
//     the wrap-around rings;
//   - infinite injection queues; ejection either contention-free (assumption
//     (iv) of the paper: messages leave "as soon as they arrive") or through
//     a single 1-flit/cycle ejection channel.
//
// The network cycle is the transmission time of one flit across a physical
// channel.
package sim

import (
	"context"
	"fmt"

	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// Routing selects the routing algorithm.
type Routing int

const (
	// RoutingDimensionOrder is the paper's deterministic routing:
	// dimensions in increasing order, Dally-Seitz virtual-channel classes
	// (assumption (v)).
	RoutingDimensionOrder Routing = iota
	// RoutingAdaptive is minimal adaptive routing with Duato-style escape
	// channels: virtual channels 0 and 1 of every physical channel form
	// the deadlock-free dimension-order escape network (class 1 and class
	// 0 respectively), the remaining V-2 are adaptive and may be claimed
	// on any minimal output. A header first tries the adaptive channels
	// of every productive output; failing that it falls back to the
	// escape channel of the dimension-order output, and once a message
	// enters the escape network it stays there (the conservative variant
	// of Duato's protocol). Requires VCs >= 3. This is the comparison
	// point the paper's introduction discusses (its refs [7, 22]).
	RoutingAdaptive
)

// Config describes one simulated network and workload.
type Config struct {
	// K is the radix (nodes per dimension); must be >= 2.
	K int
	// Dims is the number of dimensions n; must be >= 1. The paper's
	// evaluation uses Dims = 2.
	Dims int
	// VCs is the number of virtual channels per physical channel; must be
	// >= 2 so the two Dally-Seitz classes are non-empty (assumption (vi)).
	VCs int
	// BufDepth is the per-virtual-channel flit buffer depth; must be >= 1.
	// Depth 1 matches the paper's single-flit buffers but, under the
	// simulator's conservative same-cycle credit accounting, halves the
	// sustainable per-VC throughput; depth 2 (the default used by the
	// experiments) streams one flit per cycle exactly as the analytical
	// model assumes.
	BufDepth int
	// MsgLen is the fixed message length Lm in flits; must be >= 1
	// (assumption (iii)).
	MsgLen int
	// Lambda is the per-node message generation rate in messages/cycle
	// (assumption (i)); must be > 0 unless ArrivalsFactory is set.
	Lambda float64
	// Pattern chooses destinations; nil means uniform traffic.
	Pattern traffic.Pattern
	// ArrivalsFactory, when non-nil, builds the per-node arrival process
	// (overriding Lambda); each node gets an independent instance.
	ArrivalsFactory func(node topology.NodeID) traffic.Arrivals
	// Seed seeds the simulation's random stream; runs with equal Config
	// are bit-for-bit reproducible.
	Seed int64
	// EjectionContention, when true, models a single ejection channel per
	// node moving one flit per cycle. When false (the paper's assumption
	// (iv)) arriving flits are consumed immediately.
	EjectionContention bool
	// Routing selects deterministic dimension-order routing (the default,
	// the paper's assumption (v)) or minimal adaptive routing with escape
	// channels.
	Routing Routing
	// Bidirectional, when true, gives every dimension both a positive and
	// a negative ring (two unidirectional channels per node per dimension)
	// and routes each message along the shorter direction, ties to the
	// positive ring — the extension Section 2 of the paper mentions. The
	// default (false) is the paper's unidirectional network.
	Bidirectional bool
	// RecordPaths, when true, stores the sequence of nodes every message
	// visits (testing aid; costs memory).
	RecordPaths bool
	// CheckInvariants enables internal consistency checks that panic on
	// violation (testing aid).
	CheckInvariants bool
	// Collector, when non-nil, receives instrumentation events (injections,
	// deliveries, blocking, VC occupancy, end-of-run aggregates). nil — the
	// default — leaves the hot path uninstrumented; see Collector and
	// NewTelemetryCollector.
	Collector Collector
}

// withDefaults fills derived defaults without mutating c.
func (c Config) withDefaults() Config {
	if c.BufDepth == 0 {
		c.BufDepth = 2
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.K < 2 {
		return fmt.Errorf("sim: K = %d, want >= 2", c.K)
	}
	if c.Dims < 1 {
		return fmt.Errorf("sim: Dims = %d, want >= 1", c.Dims)
	}
	if c.VCs < 2 {
		return fmt.Errorf("sim: VCs = %d, want >= 2 (deadlock freedom needs two VC classes)", c.VCs)
	}
	if c.VCs > 127 {
		return fmt.Errorf("sim: VCs = %d, want <= 127", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("sim: BufDepth = %d, want >= 1", c.BufDepth)
	}
	if c.MsgLen < 1 {
		return fmt.Errorf("sim: MsgLen = %d, want >= 1", c.MsgLen)
	}
	if c.ArrivalsFactory == nil && c.Lambda <= 0 {
		return fmt.Errorf("sim: Lambda = %v, want > 0 (or an ArrivalsFactory)", c.Lambda)
	}
	if c.Routing == RoutingAdaptive && c.VCs < 3 {
		return fmt.Errorf("sim: adaptive routing needs VCs >= 3 (2 escape + adaptive), got %d", c.VCs)
	}
	return nil
}

// RunOptions control a measurement run.
type RunOptions struct {
	// Ctx, when non-nil, is polled periodically during the run; Run returns
	// the context's error as soon as cancellation or a deadline is observed
	// (within ctxCheckInterval cycles). A nil Ctx never interrupts the run.
	Ctx context.Context
	// WarmupCycles are simulated before measurement starts; messages
	// generated during warm-up are excluded from the statistics.
	WarmupCycles int64
	// MaxCycles caps the run (required, > WarmupCycles).
	MaxCycles int64
	// MinMeasured is the number of measured message deliveries to collect
	// before steady-state detection may stop the run; 0 means 10000.
	MinMeasured int64
}

func (o RunOptions) withDefaults() RunOptions {
	if o.MinMeasured == 0 {
		o.MinMeasured = 10000
	}
	return o
}

// Validate reports the first problem with the run options.
func (o RunOptions) Validate() error {
	o = o.withDefaults()
	if o.MaxCycles <= 0 {
		return fmt.Errorf("sim: MaxCycles = %d, want > 0", o.MaxCycles)
	}
	if o.WarmupCycles < 0 || o.WarmupCycles >= o.MaxCycles {
		return fmt.Errorf("sim: WarmupCycles = %d, want in [0, MaxCycles)", o.WarmupCycles)
	}
	if o.MinMeasured < 0 {
		return fmt.Errorf("sim: MinMeasured = %d, want >= 0", o.MinMeasured)
	}
	return nil
}
