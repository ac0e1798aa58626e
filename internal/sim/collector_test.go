package sim

import (
	"runtime"
	"strings"
	"testing"

	"kncube/internal/stats"
	"kncube/internal/telemetry"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

func collectorTestConfig(t testing.TB, coll Collector) Config {
	t.Helper()
	cfg := Config{
		K: 8, Dims: 2, VCs: 2, MsgLen: 8, Lambda: 0.002,
		Seed: 7, Collector: coll,
	}
	cube := topology.MustNew(cfg.K, cfg.Dims)
	hs, err := traffic.NewHotSpot(cube, 21, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pattern = hs
	return cfg
}

// countingCollector records every event for consistency checks.
type countingCollector struct {
	injected, delivered, drained int64
	blockedTotal, waitTotal      int64
	vcSamples                    int64
	runEnds                      int
	last                         RunStats
	maxQueueDepth                int
}

func (c *countingCollector) MessageInjected(depth int) {
	c.injected++
	if depth > c.maxQueueDepth {
		c.maxQueueDepth = depth
	}
}

func (c *countingCollector) MessageDelivered(lat, blocked, wait int64) {
	c.delivered++
	c.blockedTotal += blocked
	c.waitTotal += wait
}

func (c *countingCollector) MessageDrained() { c.drained++ }

func (c *countingCollector) VCOccupancy(busy int) { c.vcSamples++ }

func (c *countingCollector) RunEnd(rs RunStats) {
	c.runEnds++
	c.last = rs
}

// TestCollectorCountsMatchResult cross-checks every collector event stream
// against the engine's own counters.
func TestCollectorCountsMatchResult(t *testing.T) {
	coll := &countingCollector{}
	nw, err := New(collectorTestConfig(t, coll))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(RunOptions{WarmupCycles: 2000, MaxCycles: 30000, MinMeasured: 500})
	if err != nil {
		t.Fatal(err)
	}
	if coll.injected != res.Injected {
		t.Errorf("collector injected = %d, Result.Injected = %d", coll.injected, res.Injected)
	}
	if coll.delivered != res.Delivered {
		t.Errorf("collector delivered = %d, Result.Delivered = %d", coll.delivered, res.Delivered)
	}
	if coll.drained != 0 {
		t.Errorf("drained = %d before any Drain call", coll.drained)
	}
	if coll.runEnds != 1 {
		t.Fatalf("RunEnd called %d times, want 1", coll.runEnds)
	}
	rs := coll.last
	if rs.Cycles != res.Cycles || rs.RunCycles != res.Cycles {
		t.Errorf("RunStats cycles = (%d, %d), Result.Cycles = %d", rs.Cycles, rs.RunCycles, res.Cycles)
	}
	if rs.Wall <= 0 {
		t.Errorf("RunStats.Wall = %v, want > 0", rs.Wall)
	}
	if rs.Injected != res.Injected || rs.Delivered != res.Delivered || rs.Measured != res.Measured {
		t.Errorf("RunStats counters (%d, %d, %d) != Result (%d, %d, %d)",
			rs.Injected, rs.Delivered, rs.Measured, res.Injected, res.Delivered, res.Measured)
	}
	if len(rs.ChannelFlits) != nw.Cube().Nodes()*nw.OutputChannels() || rs.Outputs != nw.OutputChannels() {
		t.Errorf("RunStats channel shape = (%d, %d)", len(rs.ChannelFlits), rs.Outputs)
	}
	if rs.Latency == nil || rs.Latency.Count() != res.Measured {
		t.Errorf("RunStats.Latency count mismatch")
	}
	if coll.vcSamples == 0 {
		t.Errorf("no VC occupancy samples under sustained load")
	}
	if coll.waitTotal < 0 {
		t.Errorf("negative source-queue waiting %d", coll.waitTotal)
	}

	// Drained deliveries show up in both streams.
	nw.Drain(100000)
	if coll.drained == 0 && coll.delivered > res.Delivered {
		t.Errorf("drain delivered %d messages but MessageDrained never fired",
			coll.delivered-res.Delivered)
	}
	if coll.delivered-coll.drained != res.Delivered {
		t.Errorf("post-drain: delivered %d - drained %d != run deliveries %d",
			coll.delivered, coll.drained, res.Delivered)
	}
}

// TestBlockedCyclesRecorded drives a deliberately scarce network (VCs = 2,
// heavy hot-spot) and checks the per-message blocked-cycle counter moves.
func TestBlockedCyclesRecorded(t *testing.T) {
	coll := &countingCollector{}
	cfg := collectorTestConfig(t, coll)
	cfg.Lambda = 0.02 // near saturation: headers must queue for VCs
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(RunOptions{WarmupCycles: 500, MaxCycles: 8000, MinMeasured: 100}); err != nil {
		t.Fatal(err)
	}
	if coll.blockedTotal == 0 {
		t.Fatalf("no blocking recorded near saturation")
	}
}

// TestTelemetryCollectorExposition runs an instrumented simulation and
// checks the registry holds the headline khs_sim_* series, including the
// acceptance-criteria pair: per-channel utilisation and the blocking-cycles
// histogram.
func TestTelemetryCollectorExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	nw, err := New(collectorTestConfig(t, NewTelemetryCollector(reg)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Run(RunOptions{WarmupCycles: 2000, MaxCycles: 30000, MinMeasured: 500})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"khs_sim_messages_injected_total ",
		"khs_sim_messages_delivered_total ",
		"khs_sim_blocking_cycles_bucket{",
		"khs_sim_blocking_cycles_count ",
		"khs_sim_source_queue_depth_bucket{",
		"khs_sim_source_wait_cycles_count ",
		"khs_sim_latency_cycles_count ",
		"khs_sim_vc_busy_per_channel_bucket{",
		"khs_sim_cycles_total ",
		"khs_sim_cycles_per_second ",
		`khs_sim_channel_flits_total{channel="0",node="0"}`,
		`khs_sim_channel_utilisation_ratio{channel="0",node="0"}`,
		"khs_sim_channel_utilisation_max_ratio ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := reg.Counter("khs_sim_messages_injected_total", "", nil).Value(); got != res.Injected {
		t.Errorf("injected counter = %d, Result.Injected = %d", got, res.Injected)
	}
	if got := reg.Counter("khs_sim_cycles_total", "", nil).Value(); got != res.Cycles {
		t.Errorf("cycles counter = %d, Result.Cycles = %d", got, res.Cycles)
	}
	// Latency histogram is folded from the engine's exact histogram: counts
	// must agree with the measured-message count.
	if got := reg.Histogram("khs_sim_latency_cycles", "", nil, nil).Count(); got != res.Measured {
		t.Errorf("latency histogram count = %d, Result.Measured = %d", got, res.Measured)
	}
	// Utilisation gauges agree with the Result aggregate.
	maxUtil := reg.Gauge("khs_sim_channel_utilisation_max_ratio", "", nil).Value()
	if !stats.ApproxEqual(maxUtil, res.MaxChannelUtilisation, 1e-12, 1e-9) {
		t.Errorf("max utilisation gauge = %v, Result = %v", maxUtil, res.MaxChannelUtilisation)
	}
}

// TestTelemetryCollectorSecondRunAccumulates checks the counter deltas stay
// consistent when the same network Runs twice into one registry.
func TestTelemetryCollectorSecondRunAccumulates(t *testing.T) {
	reg := telemetry.NewRegistry()
	nw, err := New(collectorTestConfig(t, NewTelemetryCollector(reg)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(RunOptions{WarmupCycles: 500, MaxCycles: 5000, MinMeasured: 100}); err != nil {
		t.Fatal(err)
	}
	res2, err := nw.Run(RunOptions{WarmupCycles: 500, MaxCycles: 5000, MinMeasured: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("khs_sim_cycles_total", "", nil).Value(); got != res2.Cycles {
		t.Errorf("cycles counter = %d after two runs, network cycle = %d", got, res2.Cycles)
	}
	if got := reg.Counter("khs_sim_messages_injected_total", "", nil).Value(); got != res2.Injected {
		t.Errorf("injected counter = %d, cumulative injected = %d", got, res2.Injected)
	}
}

// benchNetwork builds the 256-node hot-spot network used by the overhead
// benchmark (mirrors BenchmarkSimulatorStep at the repo root).
func benchNetwork(b *testing.B, coll Collector) *Network {
	b.Helper()
	cube := topology.MustNew(16, 2)
	hs, err := traffic.NewHotSpot(cube, 136, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := New(Config{
		K: 16, Dims: 2, VCs: 2, MsgLen: 32, Lambda: 2e-4,
		Pattern: hs, Seed: 1, Collector: coll,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		nw.Step()
	}
	return nw
}

// BenchmarkStepCollector compares the simulator's per-cycle cost with no
// collector (the default), the telemetry-backed collector, and a bare
// counting collector. The nil case is the one the <2% overhead acceptance
// bound applies to: compare bench output against BenchmarkSimulatorStep.
func BenchmarkStepCollector(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		nw := benchNetwork(b, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Step()
		}
	})
	b.Run("telemetry", func(b *testing.B) {
		nw := benchNetwork(b, NewTelemetryCollector(telemetry.NewRegistry()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Step()
		}
	})
	b.Run("counting", func(b *testing.B) {
		nw := benchNetwork(b, &countingCollector{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Step()
		}
	})
}

// TestStepSteadyStateAllocFree pins the hot-loop allocation contract as a
// plain test so tier-1 `go test ./...` enforces it: once the event queue
// and message pools have warmed up, a simulation cycle allocates nothing.
// This is the baseline the observability layers (collector, tracing) are
// measured against — they may only add constant per-run cost elsewhere,
// never per-cycle allocations here. The saturated case is the fig1-h20
// shape past its knee, where most held VCs are parked: parking and waking
// must reuse their lists' capacity too.
func TestStepSteadyStateAllocFree(t *testing.T) {
	cube := topology.MustNew(16, 2)
	for _, tc := range []struct {
		name   string
		h      float64
		lambda float64
		warmup int
	}{
		{"light", 0.4, 2e-4, 20000},
		{"saturated", 0.2, 6e-4, 100000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs, err := traffic.NewHotSpot(cube, 136, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := New(Config{
				K: 16, Dims: 2, VCs: 2, MsgLen: 32, Lambda: tc.lambda,
				Pattern: hs, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.warmup; i++ {
				nw.Step()
			}
			if n := testing.AllocsPerRun(2000, func() { nw.Step() }); !stats.IsZero(n) {
				t.Errorf("steady-state Step allocates %v objects/cycle, want 0", n)
			}
			// AllocsPerRun truncates to whole objects per cycle, which
			// would hide a parked list that reallocates on some wakes.
			// Count exactly instead: a generated message may cost its
			// Message and, amortised, a source-queue slot; anything
			// beyond that is per-cycle work allocating.
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs, injected := ms.Mallocs, nw.Injected()
			for i := 0; i < 4000; i++ {
				nw.Step()
			}
			runtime.ReadMemStats(&ms)
			mallocs, injected = ms.Mallocs-mallocs, nw.Injected()-injected
			if mallocs > uint64(2*injected) {
				t.Errorf("4000 cycles allocated %d objects for %d generated messages, want at most 2 per message",
					mallocs, injected)
			}
		})
	}
}
