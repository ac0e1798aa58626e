package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"kncube/internal/experiments"
	"kncube/internal/sim"
	"kncube/internal/telemetry"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// The figures workload regenerates two committed Figure panels with
// khs-figures' sweep engine: one whose jobs mostly stop early on the
// steady-state detector, and one whose jobs all run to the cycle cap. Its
// inputs are those of the committed files, the default budget and seed,
// whatever --seed says: every run is then checked byte for byte, and does
// the same work, where another simulation seed would move where the
// steady-state detector stops the fig1-h20 jobs and with it the job sizes.
var figurePanelIDs = []string{"fig1-h20", "fig2-h70"}

const figureWorkers = 2

// simJob is one simulation job of the sweep, in the order RunPanels
// queues them.
type simJob struct {
	panel experiments.Panel
	point int
	seed  int64
}

func (j simJob) lambda() float64 { return j.panel.Lambdas[j.point] }

// figureInputs resolves the panels and the sweep's jobs, each with the
// seed RunPanels derives for it from the default budget's base seed.
func figureInputs() ([]experiments.Panel, experiments.SimBudget, []simJob, error) {
	budget := experiments.DefaultSimBudget()
	var panels []experiments.Panel
	var jobs []simJob
	for _, id := range figurePanelIDs {
		p, err := experiments.PanelByID(id)
		if err != nil {
			return nil, budget, nil, err
		}
		panels = append(panels, p)
		for j := range p.Lambdas {
			jobs = append(jobs, simJob{panel: p, point: j, seed: experiments.JobSeed(budget.Seed, p.ID, j, 0)})
		}
	}
	return panels, budget, jobs, nil
}

// newNetwork builds the network RunPanels simulates for one job: the
// panel's hot-spot torus with the hot node at its centre.
func newNetwork(j simJob) (*sim.Network, error) {
	p := j.panel
	cube, err := topology.New(p.K, 2)
	if err != nil {
		return nil, err
	}
	pattern, err := traffic.NewHotSpot(cube, cube.FromCoords([]int{p.K / 2, p.K / 2}), p.H)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Config{K: p.K, Dims: 2, VCs: p.V, MsgLen: p.Lm,
		Lambda: j.lambda(), Pattern: pattern, Seed: j.seed})
}

func runOptions(b experiments.SimBudget) sim.RunOptions {
	return sim.RunOptions{WarmupCycles: b.WarmupCycles, MaxCycles: b.MaxCycles, MinMeasured: b.MinMeasured}
}

// goldenCSV reads the committed figure data of a panel.
func goldenCSV(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join("results", id+".csv"))
}

func digestJobs(jobs []simJob) string {
	h := sha256.New()
	var buf [8]byte
	for _, j := range jobs {
		h.Write([]byte(j.panel.ID))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(j.lambda()))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(j.seed))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkCSV compares a regenerated panel with the committed one and
// returns the number of rows that differ.
func checkCSV(got, want []byte) int {
	if bytes.Equal(got, want) {
		return 0
	}
	g := strings.Split(strings.TrimSpace(string(got)), "\n")
	wl := strings.Split(strings.TrimSpace(string(want)), "\n")
	bad := max(len(g), len(wl)) - min(len(g), len(wl))
	for i := range min(len(g), len(wl)) {
		if g[i] != wl[i] {
			bad++
		}
	}
	return bad
}

func runFigures(cfg runConfig, w io.Writer) (*outcome, error) {
	out := newOutcome()
	panels, budget, jobs, err := figureInputs()
	if err != nil {
		return nil, err
	}
	golden := map[string][]byte{}
	for _, id := range figurePanelIDs {
		if golden[id], err = goldenCSV(id); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(w, "inputs: workload=figures seed=%d jobs=%d digest=%s\n", cfg.seed, len(jobs), digestJobs(jobs))

	// Set-up: the sweep is constructed and each panel's simulator
	// configuration is checked by building its first network, as a
	// figure script would before committing to a long sweep.
	var manifest bytes.Buffer
	var sweep experiments.Sweep
	if out.values["setup_s"], err = timeSetup(func() error {
		sweep = experiments.Sweep{Jobs: figureWorkers, Budget: budget,
			Manifest: telemetry.NewManifestWriter(&manifest)}
		for _, j := range jobs {
			if j.point == 0 {
				if _, err := newNetwork(j); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Timed phase: whole sweeps until the run time has passed.
	rt := readRuntime()
	rss := startRSSSampler()
	var jobSecs, passMs []float64
	var wall time.Duration
	var cycles int64
	var first []experiments.RunManifest
	var points [][]experiments.Point
	for pass := 0; pass == 0 || wall < cfg.seconds; pass++ {
		manifest.Reset()
		t := time.Now()
		res, err := sweep.RunPanels(context.Background(), panels)
		d := time.Since(t)
		wall += d
		passMs = append(passMs, ms(d))
		if err != nil {
			return nil, err
		}
		recs, err := telemetry.ReadJSONL[experiments.RunManifest](&manifest)
		if err != nil {
			return nil, err
		}
		out.attempted += len(jobs)
		for _, r := range recs {
			jobSecs = append(jobSecs, r.WallSeconds)
		}
		for _, pr := range res {
			var csv bytes.Buffer
			if err := experiments.WriteCSV(&csv, pr.Points); err != nil {
				return nil, err
			}
			if bad := checkCSV(csv.Bytes(), golden[pr.Panel.ID]); bad > 0 {
				fmt.Fprintf(w, "check: %s differs from results/%s.csv in %d rows\n", pr.Panel.ID, pr.Panel.ID, bad)
				out.fail(bad)
			}
		}
		if pass == 0 {
			first = recs
			for _, r := range recs {
				cycles += r.Cycles
			}
			for _, pr := range res {
				points = append(points, pr.Points)
			}
			out.values["sweep.busy_ratio"] = sum(jobSecs) / (figureWorkers * d.Seconds())
		}
	}
	rtAfter := readRuntime()
	peak := peakRSS(rss.stop(), wall)
	n := float64(len(jobSecs))

	v := out.values
	v["ops_per_s"] = n / wall.Seconds()
	// The latency a user of the figure harness sees is the time to
	// regenerate the figures. With fewer passes than tailSamples the tail
	// is the slowest pass.
	v["latency_p50_ms"] = median(slices.Clone(passMs))
	v["latency_tail_ms"] = tailOf(passMs).Value
	v["sweep.job_s_max"] = slices.Max(jobSecs)
	v["peak_rss_mb"] = peak
	v["sim.cycles_total"] = float64(cycles)
	v["runtime.alloc_kb_per_op"] = (rtAfter.allocBytes - rt.allocBytes) / 1024 / n
	v["runtime.gc_cpu_fraction"] = ratio(rtAfter.gcCPU-rt.gcCPU, rtAfter.totalCPU-rt.totalCPU)
	v["runtime.heap_live_mb"] = heapLiveMB()
	fmt.Fprintf(w, "timed: %d sweeps, %d jobs in %.3f s; job p50 %.1f ms, slowest job %.1f ms\n",
		len(passMs), len(jobSecs), wall.Seconds(), median(slices.Clone(jobSecs))*1e3, slices.Max(jobSecs)*1e3)
	fmt.Fprintf(w, "work: sim.cycles_total=%d\n", cycles)

	if !cfg.trace {
		return out, nil
	}
	rec := newRecorder()
	plain, _, err := replaySims(nil, jobs, budget)
	if err != nil {
		return nil, err
	}
	traced, results, err := replaySims(rec, jobs, budget)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_ratio"] = traced.Seconds()/plain.Seconds() - 1
	v["sim.new_ms"] = median(rec.durations("sim.new"))
	v["sim.cycles_per_s"] = float64(cycles) / (sum(rec.durations("sim.run")) / 1e3)

	// The direct calls must reproduce the sweep's own simulations.
	pointOf := map[string]experiments.Point{}
	for i, p := range panels {
		for j, pt := range points[i] {
			pointOf[fmt.Sprint(p.ID, j)] = pt
		}
	}
	cyclesOf := map[string]int64{}
	for _, r := range first {
		cyclesOf[fmt.Sprint(r.Panel, r.LambdaIdx)] = r.Cycles
	}
	for i, j := range jobs {
		key := fmt.Sprint(j.panel.ID, j.point)
		if res := results[i]; res.Cycles != cyclesOf[key] || res.MeanLatency != pointOf[key].Sim {
			fmt.Fprintf(w, "check: direct simulation of %s point %d differs from the sweep's\n", j.panel.ID, j.point)
			out.fail(1)
		}
	}
	rec.printSelfTimes(w)
	return out, rec.writeJSONL(cfg.spanOut)
}

// replaySims runs every job of the sweep as direct calls to sim.New and
// (*Network).Run on the sweep's worker count, under spans when rec is not
// nil, and returns the wall-clock time and each job's result.
func replaySims(rec *recorder, jobs []simJob, budget experiments.SimBudget) (time.Duration, []sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	queue := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < figureWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				root := rec.root("sweep.job")
				sp := root.child("sim.new", jobs[i].panel.ID)
				nw, err := newNetwork(jobs[i])
				sp.end()
				if err == nil {
					sp = root.child("sim.run", jobs[i].panel.ID)
					results[i], err = nw.Run(runOptions(budget))
					sp.end()
				}
				root.end()
				errs[i] = err
			}
		}()
	}
	for i := range jobs {
		queue <- i
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, results, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
