package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/serve"
	"kncube/internal/surface"
)

// Pool sizes of the pre-generated serve inputs. A run that issues more
// operations than its pool holds starts over at the beginning, which
// changes nothing it measures: surface answers bypass the solve cache,
// and the 4096-entry cache holds the items of 256 batches, long evicted
// when a batch comes round again.
const (
	surfacePool = 20000
	batchPool   = 2000
	batchItems  = 16
)

// serveOp is one pre-generated request of a serve workload: its route and
// body, and what the benchmark needs to check the answer.
type serveOp struct {
	path  string
	body  []byte
	model string
	opts  core.Options
	// specs holds the request's spec, or a batch's item specs in order.
	specs []core.Spec
	// want is the answer serve-surface expects from the server's surface.
	want *surface.Lookup
}

// batchShape is the shape serve-batch solves one variant at, and the top
// of its load range: about 5% above the damped solver's saturation load,
// so the item a batch draws from the top slice of that range can come
// back saturated.
type batchShape struct {
	model  string
	shape  core.Spec
	lamMax float64
}

var batchShapes = []batchShape{
	{"bidirectional-2d", core.Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2}, 1.12e-3},
	{"hotspot-2d", core.Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2}, 5.6e-4},
	{"hypercube", core.Spec{K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2}, 1.2e-3},
	{"ndim", core.Spec{K: 8, Dims: 3, V: 2, Lm: 32, H: 0.2}, 3.44e-4},
	{"uniform", core.Spec{K: 16, Dims: 2, V: 2, Lm: 32}, 2.92e-3},
}

// panelSpec is the spec of one Figure panel at load lambda, spelled as
// the experiments package spells it (Dims 2).
func panelSpec(p experiments.Panel, lambda float64) core.Spec {
	return core.Spec{K: p.K, Dims: 2, V: p.V, Lm: p.Lm, H: p.H, Lambda: lambda}
}

// uniformLoad draws λ uniformly over the panel's own load axis.
func uniformLoad(rng *rand.Rand, p experiments.Panel) float64 {
	lo, hi := p.Lambdas[0], p.Lambdas[len(p.Lambdas)-1]
	return lo + rng.Float64()*(hi-lo)
}

func solveBody(spec core.Spec, opts *serve.SolveOptions) []byte {
	b, err := json.Marshal(serve.SolveRequest{
		K: spec.K, Dims: spec.Dims, V: spec.V, Lm: spec.Lm, H: spec.H, Lambda: spec.Lambda,
		Options: opts,
	})
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// stratum draws a point uniformly from the j-th of n equal slices of
// [lo, hi]. Loads drawn slice by slice cover a range evenly, so every
// batch carries the same mix of light and heavy solves and no stretch of
// the timed phase or seed gets an easier share.
func stratum(rng *rand.Rand, lo, hi float64, j, n int) float64 {
	return lo + (float64(j)+rng.Float64())/float64(n)*(hi-lo)
}

// surfaceLambdas is the λ axis of a panel's surface: four knots per
// panel axis interval, so every Figure-axis point is a knot.
func surfaceLambdas(p experiments.Panel) []float64 {
	const perPoint = 4
	top := p.Lambdas[len(p.Lambdas)-1]
	n := perPoint * len(p.Lambdas)
	out := make([]float64, n)
	for i := range out {
		out[i] = top * float64(i+1) / float64(n)
	}
	return out
}

// surfaceDef is the surface serve-surface builds for one Figure panel.
func surfaceDef(p experiments.Panel) surface.Def {
	return surface.Def{Model: experiments.DefaultModel, K: p.K, Dims: 2, V: p.V, Lm: p.Lm,
		Hs: []float64{p.H}, Lambdas: surfaceLambdas(p)}
}

// surfaceRequest is the POST /v1/surfaces body that builds def.
func surfaceRequest(def surface.Def) []byte {
	b, err := json.Marshal(serve.SurfaceRequest{K: def.K, Dims: def.Dims, V: def.V, Lm: def.Lm,
		Hs: def.Hs, Lambdas: def.Lambdas})
	if err != nil {
		panic(err)
	}
	return b
}

// surfaceLookupOptions are the bounds khs-serve's auto mode applies with
// its default error threshold.
var surfaceLookupOptions = surface.LookupOptions{MaxErrEstimate: 0.01}

// genSurface generates serve-surface: auto-mode solves on the Figure
// shapes at loads the reference store answers by interpolation, each with
// the answer it gives. Loads near the saturation frontier, which the
// server would hand to the exact solver, are redrawn, so every request
// stays on the interpolated path.
func genSurface(seed int64, ref *surface.Store) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(seed))
	panels := experiments.Figures()
	auto := &serve.SolveOptions{Mode: serve.ModeAuto}
	ops := make([]serveOp, 0, surfacePool)
	for tries := 0; len(ops) < surfacePool; tries++ {
		if tries > 100*surfacePool {
			return nil, fmt.Errorf("serve-surface: only %d of %d draws land on the surfaces", len(ops), tries)
		}
		p := panels[rng.Intn(len(panels))]
		spec := panelSpec(p, uniformLoad(rng, p))
		lk, _, err := ref.Lookup(experiments.DefaultModel, spec, core.Options{}, surfaceLookupOptions)
		if err != nil {
			continue
		}
		ops = append(ops, serveOp{path: "/v1/solve", body: solveBody(spec, auto),
			model: experiments.DefaultModel, specs: []core.Spec{spec}, want: &lk})
	}
	return ops, nil
}

// batchOptions are the solver options of every serve-batch request.
func batchOptions() (core.Options, *serve.SolveOptions) {
	var o core.Options
	o.FixPoint.Acceleration = fixpoint.AccelAnderson
	return o, &serve.SolveOptions{Acceleration: "anderson"}
}

// genBatch generates serve-batch: batches of batchItems distinct loads on
// one shape, cycling through the variants in equal shares. A batch takes
// one load from each slice of [0.02, 1]·lamMax, in shuffled order, so the
// batches of one variant cost about the same.
func genBatch(seed int64) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	opts, apiOpts := batchOptions()
	ops := make([]serveOp, batchPool)
	for i := range ops {
		bs := batchShapes[i%len(batchShapes)]
		req := serve.BatchSolveRequest{Model: bs.model, Options: apiOpts}
		specs := make([]core.Spec, 0, batchItems)
		for _, j := range rng.Perm(batchItems) {
			lam := stratum(rng, 0.02*bs.lamMax, bs.lamMax, j, batchItems)
			s := bs.shape
			s.Lambda = lam
			specs = append(specs, s)
			req.Items = append(req.Items, serve.BatchSpec{K: s.K, Dims: s.Dims, V: s.V, Lm: s.Lm, H: s.H, Lambda: lam})
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		ops[i] = serveOp{path: "/v1/solve:batch", body: b, model: bs.model, opts: opts, specs: specs}
	}
	return ops
}

// digestOps fingerprints the generated requests, so two runs can be shown
// to send the same work.
func digestOps(ops []serveOp) string {
	h := sha256.New()
	for _, op := range ops {
		h.Write([]byte(op.path))
		h.Write([]byte{0})
		h.Write(op.body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
