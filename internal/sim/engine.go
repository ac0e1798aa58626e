package sim

import (
	"container/heap"
	"fmt"
	"time"

	"kncube/internal/stats"
)

// ctxCheckInterval is how often (in cycles) Run polls RunOptions.Ctx; a
// 256-node network simulates well over 10k cycles/second, so cancellation
// is observed within a few milliseconds without measurable polling cost.
const ctxCheckInterval = 1024

// Result summarises a measurement run.
type Result struct {
	// MeanLatency is the mean end-to-end message latency in cycles
	// (generation to tail delivery) over measured messages.
	MeanLatency float64
	// CI95 is the 95% confidence half-width of MeanLatency.
	CI95 float64
	// MeanRegular and MeanHot split the latency by message class; MeanHot
	// is 0 when the pattern generates no hot-spot messages.
	MeanRegular float64
	MeanHot     float64
	// MeanNetwork is the mean network latency (injection-VC acquisition to
	// delivery); MeanSourceWait the mean time in the source queue.
	MeanNetwork    float64
	MeanSourceWait float64
	// MeanHops is the average channel count crossed per measured message.
	MeanHops float64
	// LatencyP50, LatencyP95 and LatencyP99 are latency percentiles of the
	// measured messages (bucket upper bounds, 1-cycle resolution).
	LatencyP50, LatencyP95, LatencyP99 float64

	// Injected/Delivered/Measured are message counters over the whole run.
	Injected, Delivered, Measured int64
	// Cycles is the number of simulated cycles.
	Cycles int64
	// Steady reports whether the batch-means detector declared steady
	// state before the cycle budget ran out.
	Steady bool
	// Saturated reports the backlog-growth heuristic: the network could
	// not drain the offered load.
	Saturated bool
	// Throughput is delivered messages per node per cycle during the
	// measurement phase.
	Throughput float64
	// ChannelUtilisation is the mean fraction of cycles each network
	// channel spent moving a flit during the whole run.
	ChannelUtilisation float64
	// MaxChannelUtilisation is the busiest channel's flit rate.
	MaxChannelUtilisation float64
	// VCMultiplexing is the sampled mean number of busy virtual channels
	// per busy physical channel (compare with the model's V̄).
	VCMultiplexing float64
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("latency=%.1f±%.1f (reg %.1f, hot %.1f) cycles=%d measured=%d steady=%v saturated=%v",
		r.MeanLatency, r.CI95, r.MeanRegular, r.MeanHot, r.Cycles, r.Measured, r.Steady, r.Saturated)
}

// Run simulates until steady state (after the warm-up and minimum sample
// budget) or until MaxCycles, and returns the measured statistics.
func (nw *Network) Run(opts RunOptions) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	wallStart := time.Now()
	cyclesAtStart := nw.cycle
	nw.measureFrom = nw.cycle + opts.WarmupCycles
	nw.measuring = false
	// Steady state: the last 4 batch means of 500 latencies each agree to
	// within 5% of their average.
	nw.batch = stats.NewBatchMeans(500, 4, 0.05)
	// Reset the per-run measurement accumulators so a reused network
	// starts a fresh window instead of averaging in the previous run's
	// samples, and snapshot the per-channel flit counters so utilisation
	// is computed over this run's cycles only.
	nw.measured = 0
	nw.latAll, nw.latReg, nw.latHot = stats.Running{}, stats.Running{}, stats.Running{}
	nw.netAll, nw.waitSrc = stats.Running{}, stats.Running{}
	nw.latHist = stats.NewHistogram(1)
	nw.hopsTotal = 0
	nw.busyChanSamples, nw.busyVCCt = 0, 0
	copy(nw.chanFlitsStart, nw.chanFlits)

	step := nw.Step
	if nw.stepOverride != nil {
		step = nw.stepOverride
	}
	end := nw.cycle + opts.MaxCycles
	var backlogAtMeasure, injectedAtMeasure, deliveredAtMeasure int64
	steady := false
	for nw.cycle < end {
		if opts.Ctx != nil && nw.cycle%ctxCheckInterval == 0 {
			select {
			case <-opts.Ctx.Done():
				return Result{}, opts.Ctx.Err()
			default:
			}
		}
		if !nw.measuring && nw.cycle >= nw.measureFrom {
			nw.measuring = true
			backlogAtMeasure = nw.Backlog()
			injectedAtMeasure = nw.injected
			deliveredAtMeasure = nw.delivered
		}
		step()
		if nw.measuring && nw.measured >= opts.MinMeasured && nw.batch.Steady() {
			steady = true
			break
		}
	}
	if !nw.measuring {
		// Degenerate budget: measurement never started.
		nw.measuring = true
		backlogAtMeasure = nw.Backlog()
		injectedAtMeasure = nw.injected
		deliveredAtMeasure = nw.delivered
	}

	res := Result{
		MeanLatency:    nw.latAll.Mean(),
		CI95:           nw.latAll.CI95(),
		MeanRegular:    nw.latReg.Mean(),
		MeanHot:        nw.latHot.Mean(),
		MeanNetwork:    nw.netAll.Mean(),
		MeanSourceWait: nw.waitSrc.Mean(),
		Injected:       nw.injected,
		Delivered:      nw.delivered,
		Measured:       nw.measured,
		Cycles:         nw.cycle,
		Steady:         steady,
	}
	if nw.measured > 0 {
		res.MeanHops = float64(nw.hopsTotal) / float64(nw.measured)
		res.LatencyP50 = nw.latHist.Quantile(0.50)
		res.LatencyP95 = nw.latHist.Quantile(0.95)
		res.LatencyP99 = nw.latHist.Quantile(0.99)
	}
	measCycles := nw.cycle - nw.measureFrom
	if measCycles > 0 {
		res.Throughput = float64(nw.delivered-deliveredAtMeasure) /
			float64(measCycles) / float64(nw.cube.Nodes())
	}
	// Saturation heuristic: the backlog grew by more than 10% of the
	// messages injected during measurement (and by a non-trivial count).
	growth := nw.Backlog() - backlogAtMeasure
	injMeas := nw.injected - injectedAtMeasure
	res.Saturated = growth > 100 && float64(growth) > 0.10*float64(injMeas)

	var totalFlits, maxFlits int64
	for i, f := range nw.chanFlits {
		d := f - nw.chanFlitsStart[i]
		totalFlits += d
		if d > maxFlits {
			maxFlits = d
		}
	}
	if runCycles := nw.cycle - cyclesAtStart; runCycles > 0 {
		res.ChannelUtilisation = float64(totalFlits) / float64(runCycles) / float64(len(nw.chanFlits))
		res.MaxChannelUtilisation = float64(maxFlits) / float64(runCycles)
	}
	if nw.busyChanSamples > 0 {
		res.VCMultiplexing = float64(nw.busyVCCt) / float64(nw.busyChanSamples)
	}
	if nw.coll != nil {
		nw.coll.RunEnd(RunStats{
			Cycles:       nw.cycle,
			RunCycles:    nw.cycle - cyclesAtStart,
			Wall:         time.Since(wallStart),
			Injected:     nw.injected,
			Delivered:    nw.delivered,
			Measured:     nw.measured,
			ChannelFlits: nw.chanFlits,
			Outputs:      nw.outputs,
			Latency:      nw.latHist,
		})
	}
	return res, nil
}

// Drain runs without generating new traffic until every in-flight message
// is delivered or the cycle budget is exhausted; it reports whether the
// network fully drained. Used by conservation and deadlock-freedom tests.
//
// The pre-drain generation schedule is saved and restored, so the network
// remains usable afterwards: a subsequent Run or Step resumes injecting.
// Arrivals whose scheduled time fell inside the drain window fire on the
// first post-drain cycle (with their original, now past, generation
// stamps), exactly as if the sources had been paused.
func (nw *Network) Drain(maxCycles int64) bool {
	// Push all generation times beyond the horizon.
	if !nw.step.inited {
		nw.initStep()
	}
	nw.draining = true
	defer func() { nw.draining = false }()
	saved := make([]int64, len(nw.routers))
	for i := range nw.routers {
		saved[i] = nw.routers[i].nextGen
	}
	horizon := nw.cycle + maxCycles + 1
	for i := range nw.routers {
		nw.routers[i].nextGen = horizon
	}
	for i := range nw.step.gen.when {
		nw.step.gen.when[i] = horizon
	}
	end := nw.cycle + maxCycles
	for nw.cycle < end && nw.Backlog() > 0 {
		nw.Step()
	}
	// Restore the generation schedule (per-router times and the heap).
	st := &nw.step
	st.gen.when = st.gen.when[:0]
	st.gen.node = st.gen.node[:0]
	for i := range nw.routers {
		nw.routers[i].nextGen = saved[i]
		st.gen.when = append(st.gen.when, saved[i])
		st.gen.node = append(st.gen.node, int32(i))
	}
	heap.Init(&st.gen)
	return nw.Backlog() == 0
}

// ChannelFlits returns the number of flits that crossed output channel ch
// of the given node (testing aid for the traffic-rate equations). In the
// unidirectional network ch is the dimension index; with bidirectional
// links ch = 2*dim selects the positive ring and ch = 2*dim+1 the negative
// ring.
func (nw *Network) ChannelFlits(node, ch int) int64 {
	return nw.chanFlits[node*nw.outputs+ch]
}

// OutputChannels returns the number of network output channels per node
// (dimensions times ring directions).
func (nw *Network) OutputChannels() int { return nw.outputs }
