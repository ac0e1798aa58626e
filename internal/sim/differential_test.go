package sim

// Differential gate for the event-driven hot loop: drive two identically
// configured and seeded networks — one with the production Step, one with
// the scan-based reference step (refstep_test.go) — and require every
// observable to be bit-identical: the full Result struct, the per-channel
// flit counters, and the message counters. Any divergence in arbitration
// order, RNG draw sequence, or statistics accounting fails here before it
// could silently bias the paper-validation sweeps.

import (
	"fmt"
	"reflect"
	"testing"

	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// diffCase is one row of the differential matrix. Saturated rows must
// report Result.Saturated on both twins.
type diffCase struct {
	name      string
	cfg       Config
	saturated bool
}

// diffConfigs returns the routing × pattern matrix:
// unidirectional/bidirectional/adaptive crossed with uniform/hot-spot/
// transpose traffic at λ = 0.008, plus a saturated hot-spot row per
// routing at λ = 0.04. There, on the 4×4 torus with the contended
// ejection channel, every routing saturates, most held VCs spend most
// cycles parked, and a lost wake-up would strand flits or shift a Blocked
// count. Hot-spot rows exercise the contended ejection channel.
func diffConfigs(t *testing.T) []diffCase {
	t.Helper()
	type routingRow struct {
		name string
		vcs  int
		bi   bool
		mode Routing
	}
	routings := []routingRow{
		{"unidirectional", 2, false, RoutingDimensionOrder},
		{"bidirectional", 2, true, RoutingDimensionOrder},
		{"adaptive", 4, true, RoutingAdaptive},
	}
	patterns := []string{"uniform", "hotspot", "transpose", "hotspot-saturated"}

	cube := topology.MustNew(4, 2)
	hot := cube.FromCoords([]int{2, 2})
	var cases []diffCase
	for _, rr := range routings {
		for _, pat := range patterns {
			var p traffic.Pattern
			lambda := 0.008
			switch pat {
			case "uniform":
				p = traffic.Uniform{Cube: cube}
			case "hotspot", "hotspot-saturated":
				hs, err := traffic.NewHotSpot(cube, hot, 0.25)
				if err != nil {
					t.Fatal(err)
				}
				p = hs
				if pat == "hotspot-saturated" {
					lambda = 0.04
				}
			case "transpose":
				p = traffic.Transpose{Cube: cube}
			}
			cfg := Config{
				K: 4, Dims: 2, VCs: rr.vcs, BufDepth: 2, MsgLen: 8,
				Lambda: lambda, Pattern: p, Seed: 77,
				Bidirectional: rr.bi, Routing: rr.mode,
				EjectionContention: pat != "uniform" && pat != "transpose",
			}
			dc := diffCase{name: diffConfigName(cfg), cfg: cfg, saturated: pat == "hotspot-saturated"}
			if dc.saturated {
				dc.name += "/saturated"
			}
			cases = append(cases, dc)
		}
	}
	return cases
}

func diffConfigName(cfg Config) string {
	routing := "dor-uni"
	if cfg.Bidirectional {
		routing = "dor-bi"
	}
	if cfg.Routing == RoutingAdaptive {
		routing = "adaptive"
	}
	return fmt.Sprintf("%s/%v", routing, cfg.Pattern)
}

// TestStepMatchesReferenceRun runs both implementations through the full
// Run machinery (warm-up, measurement window, steady-state detection) and
// compares the complete Result plus the raw flit counters.
func TestStepMatchesReferenceRun(t *testing.T) {
	opts := RunOptions{WarmupCycles: 500, MaxCycles: 30000, MinMeasured: 400}
	for _, dc := range diffConfigs(t) {
		cfg := dc.cfg
		t.Run(dc.name, func(t *testing.T) {
			fast, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.stepOverride = ref.refStep

			fastRes, err := fast.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fastRes, refRes) {
				t.Errorf("Result diverged:\n fast: %+v\n ref:  %+v", fastRes, refRes)
			}
			if dc.saturated && !(fastRes.Saturated && refRes.Saturated) {
				t.Errorf("saturated row did not saturate: fast %v ref %v", fastRes.Saturated, refRes.Saturated)
			}
			if fast.cycle != ref.cycle {
				t.Errorf("cycle diverged: fast %d ref %d", fast.cycle, ref.cycle)
			}
			if !reflect.DeepEqual(fast.chanFlits, ref.chanFlits) {
				t.Error("chanFlits diverged")
			}
			if fast.busyChanSamples != ref.busyChanSamples || fast.busyVCCt != ref.busyVCCt {
				t.Errorf("multiplexing samples diverged: fast (%d,%d) ref (%d,%d)",
					fast.busyChanSamples, fast.busyVCCt, ref.busyChanSamples, ref.busyVCCt)
			}
		})
	}
}

// TestStepMatchesReferenceLockstep steps both implementations cycle by
// cycle and compares the externally observable counters after every cycle,
// so a divergence is localised to the first offending cycle rather than
// surfacing as a scrambled end-of-run aggregate.
func TestStepMatchesReferenceLockstep(t *testing.T) {
	cycles := 4000
	if testing.Short() {
		cycles = 1000
	}
	for _, dc := range diffConfigs(t) {
		cfg := dc.cfg
		t.Run(dc.name, func(t *testing.T) {
			fast, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			record := func(nw *Network) *[]deliveryRecord {
				recs := &[]deliveryRecord{}
				nw.OnDeliver(func(m *Message) {
					*recs = append(*recs, deliveryRecord{
						m.ID, m.Src, m.Dst, m.Hops, m.Blocked, m.Escaped,
						m.GenCycle, m.InjectCycle, m.DeliverCycle,
					})
				})
				return recs
			}
			fastRecs, refRecs := record(fast), record(ref)
			for c := 0; c < cycles; c++ {
				fast.Step()
				ref.refStep()
				if fast.injected != ref.injected || fast.delivered != ref.delivered {
					t.Fatalf("cycle %d: injected/delivered diverged: fast (%d,%d) ref (%d,%d)",
						c, fast.injected, fast.delivered, ref.injected, ref.delivered)
				}
				if !reflect.DeepEqual(fast.chanFlits, ref.chanFlits) {
					t.Fatalf("cycle %d: chanFlits diverged", c)
				}
			}
			// Per-message observables must match exactly: same messages
			// delivered in the same order with identical timing, hop and
			// blocking histories.
			if !reflect.DeepEqual(*fastRecs, *refRecs) {
				t.Fatalf("delivery records diverged (fast %d msgs, ref %d msgs)",
					len(*fastRecs), len(*refRecs))
			}
		})
	}
}

// deliveryRecord is every per-message observable a delivered message
// carries, for exact old-vs-new comparison.
type deliveryRecord struct {
	ID       int64
	Src, Dst topology.NodeID
	Hops     int32
	Blocked  int32
	Escaped  bool
	Gen      int64
	Inj      int64
	Del      int64
}
