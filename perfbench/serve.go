package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/serve"
	"kncube/internal/surface"
	"kncube/internal/telemetry"
)

// clients is the closed-loop concurrency of every serve workload: two
// goroutines, each over its own keep-alive connection, each sending its
// next request only after the previous answer arrived.
const clients = 2

// Per-workload operation counts outside the timed phase.
const (
	// warmupOps fill the trace ring (256 traces) and, on serve-batch, the
	// 4096-entry solve cache before timing starts.
	warmupOps = 300
	// replayWarmupOps are sent to the traced run's fresh servers before
	// its replay, so that it, like the timed phase, starts warm.
	replayWarmupOps = 100
	// checkEvery samples one timed batch request in this many for the
	// bit-identity check against core.Solve.
	checkEvery = 50
	// errorSample is how many serve-surface inputs are solved exactly to
	// measure the interpolation error.
	errorSample = 64
)

// replayOps is how many timed operations the traced run replays: a fixed
// count, so the counts it reports repeat exactly for a seed.
var replayOps = map[string]int{"serve-surface": 3000, "serve-batch": 60}

// liveServer is one khs-serve instance mounted on a loopback listener,
// with the two-connection client that drives it.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

// startServer builds a server with khs-serve's default configuration
// (its text access log written to io.Discard) and serves it on an
// ephemeral loopback port.
func startServer() (*liveServer, error) {
	logger, err := telemetry.NewLogger(io.Discard, "text")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		RequestTimeout:  30 * time.Second,
		MaxActiveSweeps: 2,
		Logger:          logger,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close drains the server and waits for its listener goroutine.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if herr := ls.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.client.CloseIdleConnections()
	return err
}

// do sends one request and reads the whole answer.
func (ls *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (ls *liveServer) getJSON(path string, v any) error {
	code, b, err := ls.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, v)
}

// prepareServer makes a started server ready for the workload's first
// request: healthy, with the variants serve-batch needs registered (per
// GET /v1/models), and with one surface per Figure panel built through
// POST /v1/surfaces for serve-surface.
func prepareServer(ls *liveServer, workload string) error {
	var health map[string]string
	if err := ls.getJSON("/healthz", &health); err != nil {
		return err
	}
	switch workload {
	case "serve-batch":
		var models serve.ModelsResponse
		if err := ls.getJSON("/v1/models", &models); err != nil {
			return err
		}
		served := map[string]bool{}
		for _, m := range models.Models {
			served[m.Name] = len(m.Constraints) > 0
		}
		for _, bs := range batchShapes {
			if !served[bs.model] {
				return fmt.Errorf("GET /v1/models does not list %q with its constraints", bs.model)
			}
		}
	case "serve-surface":
		return buildSurfaces(ls)
	}
	return nil
}

// buildSurfaces builds every panel's surface, two jobs at a time (the
// server's default active-job cap).
func buildSurfaces(ls *liveServer) error {
	panels := experiments.Figures()
	for i := 0; i < len(panels); i += 2 {
		var ids []string
		for _, p := range panels[i:min(i+2, len(panels))] {
			id, err := submitSurface(ls, surfaceRequest(surfaceDef(p)))
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if err := awaitSurface(ls, id); err != nil {
				return err
			}
		}
	}
	return nil
}

func submitSurface(ls *liveServer, body []byte) (string, error) {
	for {
		code, b, err := ls.do(http.MethodPost, "/v1/surfaces", body)
		if err != nil {
			return "", err
		}
		switch code {
		case http.StatusAccepted:
			var st serve.SurfaceStatus
			if err := json.Unmarshal(b, &st); err != nil {
				return "", err
			}
			return st.ID, nil
		case http.StatusTooManyRequests:
			// A finished job reports "done" just before it frees its slot.
			time.Sleep(time.Millisecond)
		default:
			return "", fmt.Errorf("POST /v1/surfaces: status %d: %s", code, b)
		}
	}
}

func awaitSurface(ls *liveServer, id string) error {
	for {
		var st serve.SurfaceStatus
		if err := ls.getJSON("/v1/surfaces/"+id, &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "running":
			time.Sleep(2 * time.Millisecond)
		default:
			return fmt.Errorf("surface build %s: %s %s", id, st.State, st.Error)
		}
	}
}

// buildReference builds the serve-surface surfaces in-process, the way
// the server's build jobs do, into the store the answers are checked
// against. It returns the store and the time spent in surface.Build.
func buildReference(rec *recorder) (*surface.Store, time.Duration, error) {
	st := surface.NewStore(nil)
	var total time.Duration
	for _, p := range experiments.Figures() {
		sp := rec.root("surface.reference")
		b := sp.child("surface.build", p.ID)
		t := time.Now()
		s, err := surface.Build(surfaceDef(p), surface.BuildOptions{})
		total += time.Since(t)
		b.end()
		sp.end()
		if err != nil {
			return nil, 0, fmt.Errorf("building the %s surface: %w", p.ID, err)
		}
		st.Add(s, "")
	}
	return st, total, nil
}

// opResult is what one operation reports to its closed loop.
type opResult struct {
	bytes  int
	failed bool
	// kept is the decoded answer of a sampled operation, checked later.
	kept any
}

// sample is the timing of one operation: its completion, in seconds from
// the start of the loop, and its latency in milliseconds. It is kept
// compact because a fast workload times hundreds of thousands of them.
type sample struct {
	end, latency float32
}

// loopResult is what a closed loop measured.
type loopResult struct {
	samples []sample
	wall    time.Duration
	bytes   int
	// failed holds the indices of the operations that failed, and kept
	// the sampled answers by operation index.
	failed []int
	kept   map[int]any
}

// closedLoop runs ops from index first with the given number of clients
// until count operations have been sent or the deadline passes (zero
// means none).
func closedLoop(first, count int, deadline time.Duration, do func(i int) opResult) loopResult {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	per := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(lr *loopResult) {
			defer wg.Done()
			lr.samples, lr.kept = make([]sample, 0, 1<<14), map[int]any{}
			for {
				if deadline > 0 && time.Since(start) >= deadline {
					return
				}
				i := int(next.Add(1) - 1)
				if count > 0 && i >= first+count {
					return
				}
				t := time.Now()
				r := do(i)
				lat := time.Since(t)
				lr.samples = append(lr.samples, sample{end: float32(time.Since(start).Seconds()), latency: float32(ms(lat))})
				lr.bytes += r.bytes
				if r.failed {
					lr.failed = append(lr.failed, i)
				}
				if r.kept != nil {
					lr.kept[i] = r.kept
				}
			}
		}(&per[c])
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start), kept: map[int]any{}}
	for _, p := range per {
		out.samples = append(out.samples, p.samples...)
		out.bytes += p.bytes
		out.failed = append(out.failed, p.failed...)
		for i, k := range p.kept {
			out.kept[i] = k
		}
	}
	return out
}

// checker validates one answer of a serve workload. It reports whether
// the answer is right as far as it can tell on its own, and returns the
// decoded answer when the operation is sampled for the later check
// against core.Solve.
type checker func(i int, op serveOp, code int, body []byte) (ok bool, kept any)

func checkerFor(workload string) checker {
	if workload == "serve-surface" {
		return checkSurface
	}
	return checkBatch
}

func checkSurface(_ int, op serveOp, code int, body []byte) (bool, any) {
	var r serve.SolveResponse
	if code != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Result == nil {
		return false, nil
	}
	w, g := op.want, r.Result
	return r.Source == serve.ModeSurface && r.ErrorEstimate == w.ErrEstimate &&
		g.Latency == w.Latency && g.Regular == w.Regular && g.Hot == w.Hot &&
		g.SourceWait == w.SourceWait && g.VBar == w.VBar, nil
}

func checkBatch(i int, op serveOp, code int, body []byte) (bool, any) {
	var r serve.BatchSolveResponse
	if code != http.StatusOK || json.Unmarshal(body, &r) != nil || len(r.Items) != len(op.specs) || r.Model != op.model {
		return false, nil
	}
	for _, it := range r.Items {
		if it.Status != "ok" && it.Status != "saturated" {
			return false, nil
		}
	}
	if i%checkEvery == 0 {
		return true, &r
	}
	return true, nil
}

// sameResult reports whether an API answer carries exactly the numbers of
// a core.Solve outcome.
func sameResult(saturated bool, got *serve.SolveResult, want *core.SolveResult, werr error) bool {
	if saturated || werr != nil {
		return saturated && errors.Is(werr, core.ErrSaturated)
	}
	return got != nil && got.Latency == want.Latency && got.Regular == want.Regular &&
		got.Hot == want.Hot && got.SourceWait == want.SourceWait && got.VBar == want.VBar &&
		got.Iterations == want.Convergence.Iterations && got.Residual == want.Convergence.Residual
}

// verifySampled checks every sampled batch answer bit for bit
// against core.Solve with the same spec and options; a cold prepared
// solve, which the server runs, is documented to be bit-identical to it.
// It returns the number of operations whose answer differs.
func verifySampled(ops []serveOp, kept map[int]any) int {
	bad := 0
	for i, answer := range kept {
		op := ops[i%len(ops)]
		ok := true
		for k, it := range answer.(*serve.BatchSolveResponse).Items {
			want, err := core.Solve(op.model, op.specs[k], op.opts)
			ok = ok && sameResult(it.Saturated, it.Result, want, err)
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// scrape reads GET /metrics into a map from series (name plus labels) to
// value.
func scrape(ls *liveServer) (map[string]float64, error) {
	code, b, err := ls.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			out[line[:cut]] = v
		}
	}
	return out, sc.Err()
}

// counterDelta sums, over every series of the named metric whose labels
// contain match, the increase from before to after.
func counterDelta(before, after map[string]float64, name, match string) float64 {
	var d float64
	for k, v := range after {
		base, labels, _ := strings.Cut(k, "{")
		if base == name && strings.Contains(labels, match) {
			d += v - before[k]
		}
	}
	return d
}

// serveRun is the state one serve workload run carries between phases.
type serveRun struct {
	name string
	cfg  runConfig
	ops  []serveOp
	ref  *surface.Store
	out  *outcome
}

func runServe(name string, cfg runConfig, w io.Writer) (*outcome, error) {
	r := &serveRun{name: name, cfg: cfg, out: newOutcome()}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Inputs, all generated before any server starts.
	var err error
	switch name {
	case "serve-batch":
		r.ops = genBatch(cfg.seed)
	case "serve-surface":
		var build time.Duration
		if r.ref, build, err = buildReference(rec); err != nil {
			return nil, err
		}
		r.out.values["surface.build_s"] = build.Seconds()
		if r.ops, err = genSurface(cfg.seed, r.ref); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(w, "inputs: workload=%s seed=%d requests=%d digest=%s\n", name, cfg.seed, len(r.ops), digestOps(r.ops))

	// Set-up: from server construction until it answers the workload's
	// first request, repeated; the servers set up before the last one are
	// closed after the timing.
	var servers []*liveServer
	r.out.values["setup_s"], err = timeSetup(func() error {
		ls, err := startServer()
		if err != nil {
			return err
		}
		servers = append(servers, ls)
		return prepareServer(ls, name)
	})
	if len(servers) == 0 {
		return nil, err
	}
	for _, s := range servers[:len(servers)-1] {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}
	ls := servers[len(servers)-1]
	defer ls.close()
	if err != nil {
		return nil, err
	}

	check := checkerFor(name)
	send := func(i int) opResult {
		op := r.ops[i%len(r.ops)]
		code, body, err := ls.do(http.MethodPost, op.path, op.body)
		ok, kept := false, any(nil)
		if err == nil {
			ok, kept = check(i, op, code, body)
		}
		return opResult{bytes: len(body), failed: !ok, kept: kept}
	}

	if warm := closedLoop(0, warmupOps, 0, send); len(warm.failed) > 0 {
		return nil, fmt.Errorf("%s: warm-up request %d failed", name, warm.failed[0])
	}

	before, err := scrape(ls)
	if err != nil {
		return nil, err
	}
	rt := readRuntime()
	rss := startRSSSampler()
	loop := closedLoop(warmupOps, 0, cfg.seconds, send)
	rssSamples := rss.stop()
	rtAfter := readRuntime()
	heapLive := heapLiveMB()
	after, err := scrape(ls)
	if err != nil {
		return nil, err
	}

	n, wall := len(loop.samples), loop.wall
	r.out.attempted = n
	lat := make([]float64, n)
	for i, smp := range loop.samples {
		lat[i] = float64(smp.latency)
	}
	r.out.fail(len(loop.failed))
	if bad := verifySampled(r.ops, loop.kept); bad > 0 {
		fmt.Fprintf(w, "check: %d sampled answers differ from core.Solve\n", bad)
		r.out.fail(bad)
	}

	v := r.out.values
	q := quickest(loop.samples, wall)
	v["ops_per_s"], v["latency_p50_ms"], v["latency_tail_ms"] = q.opsPerS, q.p50, q.tail.Value
	v["peak_rss_mb"] = peakRSS(rssSamples, wall)
	fmt.Fprintf(w, "timed: %d requests in %.3f s (%.2f/s, p50 %.4f ms overall)\n",
		n, wall.Seconds(), float64(n)/wall.Seconds(), median(lat))
	fmt.Fprintf(w, "quickest: %d of %d windows; tail is p%.2f of %d samples\n",
		q.windows, q.of, q.tail.Percentile, q.tail.N)
	steadyGuard(w, loop.samples, rssSamples, wall)

	total := float64(n)
	hits := counterDelta(before, after, "khs_serve_cache_hits_total", "")
	misses := counterDelta(before, after, "khs_serve_cache_misses_total", "")
	coalesced := counterDelta(before, after, "khs_serve_cache_coalesced_total", "")
	lookups := hits + misses + coalesced
	v["cache.hit_ratio"] = ratio(hits, lookups)
	v["cache.coalesced_ratio"] = ratio(coalesced, lookups)
	v["cache.evictions_per_op"] = counterDelta(before, after, "khs_serve_cache_evictions_total", "") / total
	v["serve.shed_ratio"] = counterDelta(before, after, "khs_serve_shed_total", "") / total
	v["serve.resp_kb_per_op"] = float64(loop.bytes) / 1024 / total
	shits := counterDelta(before, after, "khs_surface_lookups_total", `outcome="hit"`)
	v["surface.hit_ratio"] = ratio(shits, counterDelta(before, after, "khs_surface_lookups_total", ""))
	v["runtime.alloc_kb_per_op"] = (rtAfter.allocBytes - rt.allocBytes) / 1024 / total
	v["runtime.gc_cpu_fraction"] = ratio(rtAfter.gcCPU-rt.gcCPU, rtAfter.totalCPU-rt.totalCPU)
	v["runtime.heap_live_mb"] = heapLive

	if !cfg.trace {
		return r.out, nil
	}
	if name == "serve-surface" {
		v["surface.rel_error_max"] = r.surfaceError()
	}
	if err := r.replay(w, rec); err != nil {
		return nil, err
	}
	return r.out, nil
}

// surfaceError is the largest relative error of the interpolated latency
// against core.Solve over an evenly spread sample of the inputs.
func (r *serveRun) surfaceError() float64 {
	worst := 0.0
	for k := 0; k < errorSample; k++ {
		op := r.ops[k*len(r.ops)/errorSample]
		res, err := core.Solve(op.model, op.specs[0], op.opts)
		if err != nil {
			r.out.fail(1)
			continue
		}
		worst = max(worst, abs(op.want.Latency-res.Latency)/res.Latency)
	}
	return worst
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// solveStat is one direct solve of the traced run.
type solveStat struct {
	model              string
	ms                 float64
	rounds, accelRound int
	saturated          bool
}

// replay is the traced run. It replays the first replayOps timed
// operations twice, each time on a fresh pair of servers that both get the
// same request sequence: once without spans and once with them, and the
// wall-clock difference is the tracing overhead. Each operation is sent
// over loopback to the first server (serve.http), through
// Handler().ServeHTTP of the second (serve.handler), and then made as
// direct calls, with the same inputs and options, into the layers the
// server would use (core.prepare and core.solve, or surface.lookup).
func (r *serveRun) replay(w io.Writer, rec *recorder) error {
	count := replayOps[r.name]
	plain, _, err := r.replayOnce(nil, count)
	if err != nil {
		return err
	}
	traced, stats, err := r.replayOnce(rec, count)
	if err != nil {
		return err
	}
	v := r.out.values
	v["trace.overhead_ratio"] = traced.Seconds()/plain.Seconds() - 1

	v["serve.handler_ms_p50"] = median(rec.durations("serve.handler"))
	var transport []float64
	byOp := map[uint64]float64{}
	for _, s := range rec.spans {
		switch s.Name {
		case "serve.http":
			byOp[s.Trace] += float64(s.Duration) / 1e6
		case "serve.handler":
			byOp[s.Trace] -= float64(s.Duration) / 1e6
		}
	}
	for _, d := range byOp {
		transport = append(transport, d)
	}
	v["serve.transport_ms_p50"] = median(transport)
	v["surface.lookup_ns_p50"] = median(rec.durations("surface.lookup")) * 1e6
	v["core.prepare_ms_p50"] = median(rec.durations("core.prepare"))
	solveMetrics(v, stats)

	rec.printSelfTimes(w)
	return rec.writeJSONL(r.cfg.spanOut)
}

// solveMetrics derives the core and fixpoint metrics from the traced
// run's direct solves, overall and per variant. Saturated solves count in
// the saturated ratio only: they return no convergence summary.
func solveMetrics(v map[string]float64, stats []solveStat) {
	put := func(suffix string, keep func(solveStat) bool) {
		var times []float64
		var rounds, accel, n, sat int
		var solvedMs float64
		for _, s := range stats {
			if !keep(s) {
				continue
			}
			n++
			times = append(times, s.ms)
			if s.saturated {
				sat++
				continue
			}
			rounds += s.rounds
			accel += s.accelRound
			solvedMs += s.ms
		}
		v["core.solve_ms_p50"+suffix] = median(times)
		v["fixpoint.rounds_per_solve"+suffix] = ratio(float64(rounds), float64(n-sat))
		v["fixpoint.us_per_round"+suffix] = ratio(solvedMs*1e3, float64(rounds))
		v["fixpoint.accelerated_round_ratio"+suffix] = ratio(float64(accel), float64(rounds))
		if suffix == "" {
			v["core.saturated_ratio"] = ratio(float64(sat), float64(n))
		}
	}
	put("", func(solveStat) bool { return true })
	for _, m := range batchVariants {
		m := m
		put("."+m, func(s solveStat) bool { return s.model == m })
	}
}

// replayOnce runs one replay on fresh servers and returns its wall-clock
// time and the direct solves it made.
func (r *serveRun) replayOnce(rec *recorder, count int) (time.Duration, []solveStat, error) {
	var pair [2]*liveServer
	for i := range pair {
		ls, err := startServer()
		if err != nil {
			return 0, nil, err
		}
		defer ls.close()
		if err := prepareServer(ls, r.name); err != nil {
			return 0, nil, err
		}
		pair[i] = ls
	}
	a, b := pair[0], pair[1]
	direct := func(op serveOp) int {
		rw := httptest.NewRecorder()
		b.srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, op.path, bytes.NewReader(op.body)))
		return rw.Code
	}
	warm := closedLoop(0, replayWarmupOps, 0, func(i int) opResult {
		op := r.ops[i%len(r.ops)]
		code, _, err := a.do(http.MethodPost, op.path, op.body)
		bcode := direct(op)
		return opResult{failed: err != nil || code != http.StatusOK || bcode != http.StatusOK}
	})
	if len(warm.failed) > 0 {
		return 0, nil, fmt.Errorf("%s: replay warm-up request %d failed", r.name, warm.failed[0])
	}

	check := checkerFor(r.name)
	var mu sync.Mutex
	var stats []solveStat
	loop := closedLoop(warmupOps, count, 0, func(i int) opResult {
		op := r.ops[i%len(r.ops)]
		root := rec.root(r.name)
		defer root.end()

		sp := root.child("serve.http", "")
		code, body, err := a.do(http.MethodPost, op.path, op.body)
		sp.end()
		ok := err == nil
		if ok {
			ok, _ = check(i, op, code, body)
		}

		sp = root.child("serve.handler", "")
		bcode := direct(op)
		sp.end()
		ok = ok && bcode == http.StatusOK

		if op.want != nil {
			sp = root.child("surface.lookup", "")
			_, _, err := r.ref.Lookup(op.model, op.specs[0], op.opts, surfaceLookupOptions)
			sp.end()
			return opResult{failed: !ok || err != nil}
		}
		sp = root.child("core.prepare", op.model)
		ps, err := core.Prepare(op.model, op.specs[0], op.opts)
		sp.end()
		if err != nil {
			return opResult{failed: true}
		}
		local := make([]solveStat, 0, len(op.specs))
		for _, s := range op.specs {
			sp = root.child("core.solve", op.model)
			res, err := ps.Solve(s.Lambda)
			st := solveStat{model: op.model, ms: ms(sp.end())}
			switch {
			case err == nil:
				st.rounds, st.accelRound = res.Convergence.Iterations, res.Convergence.AcceleratedRounds
			case errors.Is(err, core.ErrSaturated):
				st.saturated = true
			default:
				ok = false
			}
			local = append(local, st)
		}
		mu.Lock()
		stats = append(stats, local...)
		mu.Unlock()
		return opResult{failed: !ok}
	})
	if len(loop.failed) > 0 {
		return 0, nil, fmt.Errorf("%s: replayed request %d failed", r.name, loop.failed[0])
	}
	return loop.wall, stats, nil
}
