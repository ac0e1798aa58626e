package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeCounters are the cumulative Go runtime counters read before and
// after the timed phase; they are read without stopping the world.
type runtimeCounters struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rssSample is the resident set size at one moment of the timed phase.
type rssSample struct {
	at time.Duration
	mb float64
}

// rssSampler reads the resident set size from /proc/self/statm at a fixed
// interval, so the two halves of a timed phase can be compared.
type rssSampler struct {
	stopc   chan struct{}
	wg      sync.WaitGroup
	samples []rssSample
}

const rssInterval = 25 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	start := time.Now()
	page := float64(os.Getpagesize())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				if mb, ok := residentMB(page); ok {
					s.samples = append(s.samples, rssSample{time.Since(start), mb})
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the samples.
func (s *rssSampler) stop() []rssSample {
	close(s.stopc)
	s.wg.Wait()
	return s.samples
}

func residentMB(page float64) (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * page / (1 << 20), true
}

// split divides the samples of a timed phase into k windows of equal
// length by completion time, returning each window's latencies.
func split(samples []sample, wall time.Duration, k int) [][]float64 {
	out := make([][]float64, k)
	for _, s := range samples {
		i := min(k-1, int(float64(s.end)/wall.Seconds()*float64(k)))
		out[i] = append(out[i], float64(s.latency))
	}
	return out
}

// The serve throughput and latencies are read from the quickest windows
// of the timed phase. A shared host runs this: a neighbour on the same
// physical core slows every instruction by up to 40% for stretches of a
// few seconds, which moves a whole-run figure by more than any bound. The
// quickest windows are those the host disturbed least, and they move
// least between runs.
//
// windowLen is the length of a window, windowOps the fewest operations a
// window holds on average (a workload of slow operations gets fewer,
// longer windows), and quickShare the share of the windows that the
// figures are read from. With fewer than minWindows windows, the windows
// are too long to tell the host's slow stretches apart, and ranking them
// measures little but which of them drew the costlier operations: the
// whole timed phase is read instead.
const (
	windowLen  = 500 * time.Millisecond
	windowOps  = 100
	minWindows = 16
	quickShare = 0.25
)

// quick is what the quickest windows of a timed phase measured.
type quick struct {
	opsPerS, p50 float64
	tail         tail
	windows, of  int
}

// quickest splits the timed phase into windows, keeps the quickShare of
// them that completed the most operations (all of it, when there would be
// fewer than minWindows), and returns their throughput and the median and
// tail of the latencies of their operations.
func quickest(samples []sample, wall time.Duration) quick {
	k := min(int(wall/windowLen), len(samples)/windowOps)
	if k < minWindows {
		k = 1
	}
	win := split(samples, wall, k)
	sort.SliceStable(win, func(i, j int) bool { return len(win[i]) > len(win[j]) })
	keep := max(1, int(quickShare*float64(k)))
	var lat []float64
	for _, w := range win[:keep] {
		lat = append(lat, w...)
	}
	return quick{
		opsPerS: float64(len(lat)) / (wall.Seconds() * float64(keep) / float64(k)),
		p50:     median(slices.Clone(lat)),
		tail:    tailOf(lat),
		windows: keep,
		of:      k,
	}
}

// peakRSS is the median over the windows of the timed phase of the
// largest resident set size sampled in each, so that one garbage
// collection landing late does not move it.
func peakRSS(rss []rssSample, wall time.Duration) float64 {
	const windows = 10
	var peaks []float64
	step := wall / windows
	for k := time.Duration(0); k < windows; k++ {
		peaks = append(peaks, maxRSS(rss, k*step, (k+1)*step))
	}
	return median(peaks)
}

// always is a time after every sample.
const always = time.Duration(1<<63 - 1)

// maxRSS is the largest resident set size sampled in [from, to).
func maxRSS(rss []rssSample, from, to time.Duration) float64 {
	m := 0.0
	for _, s := range rss {
		if s.at >= from && s.at < to {
			m = max(m, s.mb)
		}
	}
	return m
}

// steadyGuard reports ops/s, p50 latency and resident memory separately
// for the two halves of the timed phase and flags the run when a metric
// moved between them by more than that metric's bound: a run whose state
// still drifts (a filling cache or trace ring) does not measure the
// steady state the benchmark claims to.
func steadyGuard(w io.Writer, samples []sample, rss []rssSample, wall time.Duration) {
	h := split(samples, wall, 2)
	mid := wall / 2
	for _, c := range []struct {
		name        string
		first, last float64
	}{
		{"ops_per_s", float64(len(h[0])) / mid.Seconds(), float64(len(h[1])) / mid.Seconds()},
		{"latency_p50_ms", median(h[0]), median(h[1])},
		{"peak_rss_mb", maxRSS(rss, 0, mid), maxRSS(rss, mid, always)},
	} {
		drift := ratio(c.last, c.first) - 1
		verdict := "steady"
		if abs(drift) > boundOf(c.name) {
			verdict = "FLAGGED"
		}
		fmt.Fprintf(w, "halves: %-15s first=%.4f second=%.4f drift=%+.3f bound=%.2f %s\n",
			c.name, c.first, c.last, drift, boundOf(c.name), verdict)
	}
}

// boundOf is the bound of the named end-to-end metric.
func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
