package core

import (
	"fmt"
	"math"

	"kncube/internal/queueing"
	"kncube/internal/vcmodel"
)

// General k-ary n-cube hot-spot model. The paper's analysis (Section 3)
// fixes n = 2; its title and network model (Section 2) are for general n.
// This file generalises the analysis to arbitrary dimensionality under the
// same assumptions, recovering the structure of the 2-D model when n = 2
// (with the per-row resolution of Eq. 25 replaced by suffix averaging).
//
// Geometry. Deterministic routing corrects dimensions in increasing order
// on unidirectional rings. A hot-spot message that is traversing dimension
// d has already matched the hot node's address on dimensions < d, so the
// hot-spot traffic forms a tree rooted at the hot node: the dimension-d
// channel at ring distance j from the hot node's coordinate (within the
// subcube where dimensions < d equal the hot address) carries
//
//	lambda_h(d, j) = lambda·h·k^d·(k-j),   j = 1..k-1,
//
// k^d source prefixes times the (k-j) ring positions at distance >= j —
// Eqs. 6-7 are the n = 2 instances (d = 0 gives lambda·h·(k-j), d = 1
// gives lambda·h·k·(k-j)). There are k^(n-1-d) such channels per (d, j),
// a fraction k^-(d+1) of all dimension-d channels. Regular traffic loads
// every channel at lambda·(1-h)·k̄ (Eq. 3).
//
// Service times. S^h_d(j): hot-spot service at the dimension-d hot channel
// j hops from the hot coordinate; S^r_d(b): regular service at a
// dimension-d channel with b hops left in that dimension. Both follow the
// paper's 1 + B + next recursions; the continuation into the next
// dimension averages over the geometric first-differing-dimension
// distribution of a uniform address suffix.

type ndimModel struct {
	solverBase
	s        Spec // s.Dims is the dimension count n; the network has K^n nodes
	prepared bool
	lr       float64   // Eq. 3
	lh       []float64 // lh[hotIdx(d, j)] = lambda·h·k^d·(k-j)
	// pHot[d] = k^-(d+1), the fraction of dimension-d channels at each
	// hot position j.
	pHot []float64
	// Channel classes, rebuilt by SetLambda: a channel off the hot tree,
	// and the hot channels, [hotIdx(d, j)].
	cQuiet channel
	cHot   []channel
	// Round scratch: the hot-channel delays, [hotIdx(d, j)], and each
	// dimension's averaged regular delay, [d].
	bHot []float64
	bAvg []float64
}

func newNDimModel(s Spec, o Options) *ndimModel {
	return &ndimModel{solverBase: newSolverBase(o, s.V, s.Lm), s: s}
}

// Prepare allocates the hot-spot rate tree and derives the rates for the
// constructed load.
func (m *ndimModel) Prepare() {
	if !m.prepared {
		n, k := m.s.Dims, m.s.K
		m.lh = make([]float64, n*(k-1))
		m.cHot = make([]channel, n*(k-1))
		m.bHot = make([]float64, n*(k-1))
		m.bAvg = make([]float64, n)
		m.pHot = make([]float64, n)
		for d := range m.pHot {
			m.pHot[d] = math.Pow(float64(k), -float64(d+1))
		}
		m.prepared = true
	}
	m.SetLambda(m.s.Lambda)
}

// held is the bytes of the buffers Prepare built (see heldSizer).
func (m *ndimModel) held() int {
	return bytesOf(m.lh) + bytesOf(m.cHot) + bytesOf(m.bHot) + bytesOf(m.bAvg) + bytesOf(m.pHot)
}

// SetLambda recomputes the λ-dependent traffic rates and the channel
// classes they load in place.
//
//khs:hotpath
func (m *ndimModel) SetLambda(lambda float64) {
	m.s.Lambda = lambda
	p := m.s
	m.lr = p.Lambda * (1 - p.H) * float64(p.K-1) / 2
	m.cQuiet = m.channel(m.lr, 0)
	k := p.K
	kd := 1.0
	for d := range m.pHot {
		for j := 1; j <= k-1; j++ {
			i := m.hotIdx(d, j)
			m.lh[i] = p.Lambda * p.H * kd * float64(k-j)
			m.cHot[i] = m.channel(m.lr, m.lh[i])
		}
		kd *= float64(k)
	}
}

// validateNDim checks the radix, the dimension count and the node-count
// cap, then the shared ranges. The virtual-channel floor follows the
// geometry: a ring of k > 2 nodes has a cycle that deterministic routing
// needs two virtual channels to break, while dimension-order routing on a
// 2-node ring crosses at most one hop per dimension, so at K = 2 one
// virtual channel suffices.
func validateNDim(s Spec) error {
	if s.K < 2 {
		return fieldErrf("k", "core: ndim K = %d, want >= 2", s.K)
	}
	if s.Dims < 1 {
		return fieldErrf("dims", "core: ndim Dims = %d, want >= 1", s.Dims)
	}
	if math.Pow(float64(s.K), float64(s.Dims)) > 1<<30 ||
		2*float64(s.Dims)*float64(s.K-1) > maxStateSize {
		return fieldErrf("k", "core: ndim K^Dims too large (K=%d, Dims=%d)", s.K, s.Dims)
	}
	minV := 2
	if s.K == 2 {
		minV = 1
	}
	return s.checkRanges(minV)
}

// validateHypercube is the hypercube's rules: the 2-ary n-cube of 1..30
// dimensions, then ndim's rules.
func validateHypercube(s Spec) error {
	if s.K != 2 {
		return fieldErrf("k", "core: the hypercube is the 2-ary n-cube, got K = %d", s.K)
	}
	if s.Dims < 1 || s.Dims > 30 {
		return fieldErrf("dims", "core: hypercube Dims = %d, want 1..30", s.Dims)
	}
	return validateNDim(s)
}

// StateSize: hot services [d][j] then regular services [d][b], both
// j,b = 1..k-1, flattened d-major.
func (m *ndimModel) StateSize() int {
	if m.s.Dims < 1 || m.s.K < 2 {
		return 0
	}
	return 2 * m.s.Dims * (m.s.K - 1)
}

func (m *ndimModel) hotIdx(d, j int) int { return d*(m.s.K-1) + (j - 1) }
func (m *ndimModel) regIdx(d, b int) int {
	return m.s.Dims*(m.s.K-1) + d*(m.s.K-1) + (b - 1)
}

// InitState writes the zero-load services: j hops in this dimension plus
// the expected remaining path, (k-1)/2 hops per remaining dimension.
func (m *ndimModel) InitState(x []float64) {
	k, n := m.s.K, m.s.Dims
	for d := 0; d < n; d++ {
		rem := float64(n-1-d) * float64(k-1) / 2
		for j := 1; j <= k-1; j++ {
			x[m.hotIdx(d, j)] = m.lm + float64(j) + rem
			x[m.regIdx(d, j)] = m.lm + float64(j) + rem
		}
	}
}

// cont returns the expected continuation services after finishing
// dimension d of a hot-spot and of a regular message, read from the
// entries of x for the dimensions above d only.
func (m *ndimModel) cont(x []float64, d int) (hot, reg float64) {
	k, n := m.s.K, m.s.Dims
	inv := 1.0 / float64(k)
	// The message's remaining address digits are uniform; the next crossed
	// dimension is the first one among d+1..n-1 with a nonzero offset.
	pSame := 1.0
	for d2 := d + 1; d2 < n; d2++ {
		// Offset in dimension d2 is nonzero with probability (k-1)/k; each
		// distance 1..k-1 equally likely.
		h, r := x[m.hotIdx(d2, 1):m.hotIdx(d2+1, 1)], x[m.regIdx(d2, 1):m.regIdx(d2+1, 1)]
		for t := range h {
			hot += pSame * inv * h[t]
			reg += pSame * inv * r[t]
		}
		pSame /= float64(k)
	}
	return hot + pSame*m.lm, reg + pSame*m.lm
}

// regEntrance returns the mean regular service over a dimension's
// positions (the competing-class service used in the blocking terms).
func (m *ndimModel) regEntrance(in []float64, d int) float64 {
	sum := 0.0
	for b := 1; b <= m.s.K-1; b++ {
		sum += in[m.regIdx(d, b)]
	}
	return sum / float64(m.s.K-1)
}

// Iterate evaluates the per-dimension recursions in two passes. The
// first computes every blocking delay from in, dimensions in increasing
// order so a refusal names the channel it always named. The second runs
// the recursions by forward substitution, reading only the entries of out
// written earlier in the same call: a position builds on the one before
// it, and dimensions run from highest to lowest so the continuation after
// dimension d reads this call's values of the higher dimensions.
//
//khs:hotpath
func (m *ndimModel) Iterate(in, out []float64) error {
	k, n := m.s.K, m.s.Dims
	for d := 0; d < n; d++ {
		entReg := m.regEntrance(in, d)
		// Hot channels. Their delays also enter the regular average
		// below, which sees the same channels with the same arguments.
		for j := 1; j <= k-1; j++ {
			i := m.hotIdx(d, j)
			b, err := m.blocking(&m.cHot[i], entReg, in[i])
			if err != nil {
				return fmt.Errorf("%w (ndim hot, dim %d ch %d)", ErrSaturated, d, j)
			}
			m.bHot[i] = b
		}
		// Regular blocking: the hot-tree-weighted average over the
		// dimension's channels (a fraction k^-(d+1) of them sit at each
		// hot position j).
		pHot := m.pHot[d]
		bAvg := 0.0
		for _, b := range m.bHot[m.hotIdx(d, 1):m.hotIdx(d+1, 1)] {
			bAvg += pHot * b
		}
		bQuiet, err := m.blocking(&m.cQuiet, entReg, 0)
		if err != nil {
			return fmt.Errorf("%w (ndim quiet, dim %d)", ErrSaturated, d)
		}
		m.bAvg[d] = bAvg + (1-float64(k-1)*pHot)*bQuiet
	}
	for d := n - 1; d >= 0; d-- {
		hot, reg := m.cont(out, d)
		for j := 1; j <= k-1; j++ {
			i := m.hotIdx(d, j)
			hot = 1 + m.bHot[i] + hot
			out[i] = hot
		}
		for b := 1; b <= k-1; b++ {
			reg = 1 + m.bAvg[d] + reg
			out[m.regIdx(d, b)] = reg
		}
	}
	return nil
}

// The hypercube baseline, the model of the authors' predecessor paper
// (S. Loucif and M. Ould-Khaoua, J. Supercomputing 27(3), 2004; the
// paper's reference [12]), is the 2-ary n-cube: with k = 2 each ring is
// one channel, so unidirectional and bidirectional networks coincide and
// the hot tree above puts one hot channel in each dimension. It is this
// model at K = 2, under its own name and rules.
func init() {
	factory := func(s Spec, o Options) Solver { return newNDimModel(s, o) }
	Register("ndim", Spec{Dims: 2}, validateNDim, factory)
	Register("hypercube", Spec{K: 2}, validateHypercube, factory)
}

// Assemble computes the latency decomposition from the converged state.
func (m *ndimModel) Assemble(state []float64, conv Convergence) (*SolveResult, error) {
	k, n := m.s.K, m.s.Dims

	// Entrance distributions: the first crossed dimension of a uniform
	// non-self destination is d with probability (k-1)/k · k^-d,
	// normalised by 1 - k^-n; the entry distance is uniform on 1..k-1.
	norm := 1 - math.Pow(float64(k), -float64(n))
	entReg, entHot := 0.0, 0.0
	pPrefix := 1.0
	for d := 0; d < n; d++ {
		for j := 1; j <= k-1; j++ {
			pdj := pPrefix * (1.0 / float64(k)) / norm
			entReg += pdj * state[m.regIdx(d, j)]
			entHot += pdj * state[m.hotIdx(d, j)]
		}
		pPrefix /= float64(k)
	}

	// Source queue.
	lv := m.s.Lambda / float64(m.s.V)
	mix := (1-m.s.H)*entReg + m.s.H*entHot
	ws, err := queueing.MG1Wait(lv, mix, 0)
	if err != nil {
		return nil, fmt.Errorf("%w (ndim source queue)", ErrSaturated)
	}

	// Channel-averaged multiplexing degree.
	vSum := 0.0
	maxUtil := 0.0
	for d := 0; d < n; d++ {
		entRegD := m.regEntrance(state, d)
		pHot := m.pHot[d]
		acc := 0.0
		for j := 1; j <= k-1; j++ {
			i := m.hotIdx(d, j)
			sBar := queueing.WeightedService(m.lr, entRegD, m.lh[i], state[i])
			if u := (m.lr + m.lh[i]) * sBar; u > maxUtil {
				maxUtil = u
			}
			deg, err := vcmodel.Degree(m.s.V, m.lr+m.lh[i], sBar)
			if err != nil {
				return nil, err
			}
			acc += pHot * deg
		}
		if u := m.lr * entRegD; u > maxUtil {
			maxUtil = u
		}
		quiet, err := vcmodel.Degree(m.s.V, m.lr, entRegD)
		if err != nil {
			return nil, err
		}
		acc += (1 - float64(k-1)*pHot) * quiet
		vSum += acc
	}
	vBar := vSum / float64(n)

	regular := (entReg + ws) * vBar
	hot := (entHot + ws) * vBar
	latency := (1-m.s.H)*regular + m.s.H*hot

	return &SolveResult{
		Latency:        latency,
		Regular:        regular,
		Hot:            hot,
		SourceWait:     ws,
		VBar:           vBar,
		MaxUtilisation: maxUtil,
		Convergence:    conv,
	}, nil
}
