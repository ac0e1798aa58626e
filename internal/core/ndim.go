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
	lr       float64     // Eq. 3
	lh       [][]float64 // lh[d][j] = lambda·h·k^d·(k-j)
	// Channel classes, rebuilt by SetLambda: a channel off the hot tree,
	// and the hot channels, [d][j].
	cQuiet channel
	cHot   [][]channel
	// Round scratch: the hot-channel delays, [d][j], and each
	// dimension's averaged regular delay, [d].
	bHot [][]float64
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
		if n < 0 {
			n = 0
		}
		if k < 0 {
			k = 0
		}
		m.lh = make([][]float64, n)
		m.cHot = make([][]channel, n)
		m.bHot = make([][]float64, n)
		for d := 0; d < n; d++ {
			m.lh[d] = make([]float64, k+1)
			m.cHot[d] = make([]channel, k+1)
			m.bHot[d] = make([]float64, k)
		}
		m.bAvg = make([]float64, n)
		m.prepared = true
	}
	m.SetLambda(m.s.Lambda)
}

// held is the bytes of the buffers Prepare built (see heldSizer).
func (m *ndimModel) held() int {
	return bytesOf2(m.lh) + bytesOf2(m.cHot) + bytesOf2(m.bHot) + bytesOf(m.bAvg)
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
	if k < 0 {
		k = 0
	}
	kd := 1.0
	for d := range m.lh {
		for j := 1; j <= k; j++ {
			m.lh[d][j] = p.Lambda * p.H * kd * float64(k-j)
			m.cHot[d][j] = m.channel(m.lr, m.lh[d][j])
		}
		kd *= float64(k)
	}
}

// Validate checks the radix, the dimension count and the node-count cap,
// then the shared ranges.
func (m *ndimModel) Validate() error {
	if m.s.K < 2 {
		return fieldErrf("k", "core: ndim K = %d, want >= 2", m.s.K)
	}
	if m.s.Dims < 1 {
		return fieldErrf("dims", "core: ndim Dims = %d, want >= 1", m.s.Dims)
	}
	if math.Pow(float64(m.s.K), float64(m.s.Dims)) > 1<<30 ||
		2*float64(m.s.Dims)*float64(m.s.K-1) > maxStateSize {
		return fieldErrf("k", "core: ndim K^Dims too large (K=%d, Dims=%d)", m.s.K, m.s.Dims)
	}
	return m.s.checkRanges(2)
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
// the expected remaining path (half ring per remaining dimension, roughly).
func (m *ndimModel) InitState(x []float64) {
	k, n := m.s.K, m.s.Dims
	for d := 0; d < n; d++ {
		rem := float64(n-1-d) * float64(k-1) / 2 / 2
		for j := 1; j <= k-1; j++ {
			x[m.hotIdx(d, j)] = m.lm + float64(j) + rem
			x[m.regIdx(d, j)] = m.lm + float64(j) + rem
		}
	}
}

// cont returns the expected continuation service after finishing
// dimension d for a hot-spot (hot = true) or regular message, read from
// the entries of x for the dimensions above d.
func (m *ndimModel) cont(x []float64, d int, hot bool) float64 {
	k, n := m.s.K, m.s.Dims
	// The message's remaining address digits are uniform; the next crossed
	// dimension is the first one among d+1..n-1 with a nonzero offset.
	val := 0.0
	pSame := 1.0
	for d2 := d + 1; d2 < n; d2++ {
		// Offset in dimension d2 is nonzero with probability (k-1)/k; each
		// distance 1..k-1 equally likely.
		for t := 1; t <= k-1; t++ {
			var s float64
			if hot {
				s = x[m.hotIdx(d2, t)]
			} else {
				s = x[m.regIdx(d2, t)]
			}
			val += pSame * (1.0 / float64(k)) * s
		}
		pSame /= float64(k)
	}
	return val + pSame*m.lm
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
			b, err := m.blocking(&m.cHot[d][j], entReg, in[m.hotIdx(d, j)])
			if err != nil {
				return fmt.Errorf("%w (ndim hot, dim %d ch %d)", ErrSaturated, d, j)
			}
			m.bHot[d][j] = b
		}
		// Regular blocking: the hot-tree-weighted average over the
		// dimension's channels (a fraction k^-(d+1) of them sit at each
		// hot position j).
		pHot := math.Pow(float64(k), -float64(d+1))
		bAvg := 0.0
		for j := 1; j <= k-1; j++ {
			bAvg += pHot * m.bHot[d][j]
		}
		bQuiet, err := m.blocking(&m.cQuiet, entReg, 0)
		if err != nil {
			return fmt.Errorf("%w (ndim quiet, dim %d)", ErrSaturated, d)
		}
		m.bAvg[d] = bAvg + (1-float64(k-1)*pHot)*bQuiet
	}
	for d := n - 1; d >= 0; d-- {
		next := m.cont(out, d, true)
		for j := 1; j <= k-1; j++ {
			next = 1 + m.bHot[d][j] + next
			out[m.hotIdx(d, j)] = next
		}
		next = m.cont(out, d, false)
		for b := 1; b <= k-1; b++ {
			next = 1 + m.bAvg[d] + next
			out[m.regIdx(d, b)] = next
		}
	}
	return nil
}

func init() {
	Register("ndim", Spec{Dims: 2}, func(s Spec, o Options) (Solver, error) {
		return newNDimModel(s, o), nil
	})
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
		pHot := math.Pow(float64(k), -float64(d+1))
		acc := 0.0
		for j := 1; j <= k-1; j++ {
			sBar := queueing.WeightedService(m.lr, entRegD, m.lh[d][j], state[m.hotIdx(d, j)])
			if u := (m.lr + m.lh[d][j]) * sBar; u > maxUtil {
				maxUtil = u
			}
			deg, err := vcmodel.Degree(m.s.V, m.lr+m.lh[d][j], sBar)
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
