package core

// Hypercube hot-spot model, after the authors' own baseline: S. Loucif and
// M. Ould-Khaoua, "Modelling latency in deterministic wormhole-routed
// hypercubes under hot-spot traffic", J. Supercomputing 27(3), 2004 — the
// paper's reference [12] and the model the IPDPS'05 torus analysis
// generalises from. The hypercube is the 2-ary n-cube: N = 2^n nodes,
// e-cube (dimension-order) routing, one channel per dimension per node
// (with k = 2 the unidirectional and bidirectional networks coincide), V
// virtual channels per channel.
//
// Structure, parallel to the torus model:
//
//   - a regular message crosses dimension d with probability 1/2, so the
//     uniform per-channel rate is lambda*(1-h)/2;
//   - hot-spot traffic aggregates along the e-cube tree: the dimension-d
//     channel on the hot path (the one whose upstream node matches the hot
//     address on all dimensions below d and differs on d) carries
//     lambda*h*2^d — 2^d sources funnel through it; there are 2^(n-1-d)
//     such channels;
//   - service times follow the same 1 + B + next recursions, with the
//     "next" averaged over the geometric distribution of the next
//     differing dimension;
//   - blocking, source queueing and virtual-channel multiplexing reuse the
//     shared compositions (Eqs. 26-37 machinery).

import (
	"fmt"
	"math"

	"kncube/internal/queueing"
	"kncube/internal/vcmodel"
)

type hyperModel struct {
	solverBase
	s        Spec // s.Dims is the cube dimension n; the network has 2^n nodes
	prepared bool
	lu       float64   // regular per-channel rate lambda(1-h)/2
	lh       []float64 // hot rate on the dim-d hot channel: lambda*h*2^d
	// pHotChan[d] = fraction of dim-d channels that are hot channels,
	// 2^(n-1-d) of 2^n.
	pHotChan []float64
	// Channel classes, rebuilt by SetLambda: a channel off the hot tree,
	// and the hot channel of each dimension, [d].
	cQuiet channel
	cHot   []channel
	next   []float64 // round scratch for nextWeights, [d2]
	bHot   []float64 // round scratch: the hot-channel delays, [d]
}

func newHyperModel(s Spec, o Options) *hyperModel {
	return &hyperModel{solverBase: newSolverBase(o, s.V, s.Lm), s: s}
}

// Prepare builds the e-cube hot-channel topology (the per-dimension hot
// fractions) and derives the rates for the constructed load.
func (m *hyperModel) Prepare() {
	if !m.prepared {
		n := m.s.Dims
		if n < 0 {
			n = 0
		}
		m.lh = make([]float64, n)
		m.cHot = make([]channel, n)
		m.pHotChan = make([]float64, n)
		m.next = make([]float64, n)
		m.bHot = make([]float64, n)
		for d := 0; d < n; d++ {
			m.pHotChan[d] = math.Pow(2, float64(-1-d))
		}
		m.prepared = true
	}
	m.SetLambda(m.s.Lambda)
}

// held is the bytes of the buffers Prepare built (see heldSizer).
func (m *hyperModel) held() int {
	return bytesOf(m.lh) + bytesOf(m.pHotChan) + bytesOf(m.cHot) + bytesOf(m.next) + bytesOf(m.bHot)
}

// SetLambda recomputes the per-dimension traffic rates and the channel
// classes they load in place.
//
//khs:hotpath
func (m *hyperModel) SetLambda(lambda float64) {
	m.s.Lambda = lambda
	p := m.s
	m.lu = p.Lambda * (1 - p.H) / 2
	m.cQuiet = m.channel(m.lu, 0)
	for d := range m.lh {
		m.lh[d] = p.Lambda * p.H * float64(int64(1)<<d)
		m.cHot[d] = m.channel(m.lu, m.lh[d])
	}
}

// Validate checks the cube dimension, then the shared ranges (V >= 1:
// deterministic e-cube routing on a hypercube is deadlock-free without
// extra virtual-channel classes).
func (m *hyperModel) Validate() error {
	if m.s.Dims < 1 || m.s.Dims > 30 {
		return fieldErrf("dims", "core: hypercube Dims = %d, want 1..30", m.s.Dims)
	}
	return m.s.checkRanges(1)
}

// StateSize: [0..n) S^h_d (hot service at the dim-d hot channel);
// [n..2n) S^r_d (regular service at a dim-d channel).
func (m *hyperModel) StateSize() int {
	n := m.s.Dims
	if n < 0 {
		n = 0
	}
	return 2 * n
}

// InitState writes the zero-load services: the mean remaining path from
// dimension d is 1 + half the higher dimensions.
func (m *hyperModel) InitState(x []float64) {
	n := len(m.lh)
	for d := 0; d < n; d++ {
		rem := 1 + float64(n-1-d)/2
		x[d] = m.lm + rem
		x[n+d] = m.lm + rem
	}
}

// nextWeights writes into m.next, for a message at dimension d (having
// just crossed it), the probability that the next crossed dimension is
// d2 > d, and returns the probability that d was the last: each higher
// dimension differs independently with probability 1/2 for uniform (and
// hot) destinations.
func (m *hyperModel) nextWeights(d int) (done float64) {
	rem := 1.0
	for d2 := d + 1; d2 < len(m.next); d2++ {
		m.next[d2] = rem / 2
		rem /= 2
	}
	return rem
}

// Iterate evaluates the per-dimension services in two passes. The first
// computes every blocking delay from in, dimensions in increasing order
// so a refusal names the channel it always named. The second runs from
// the highest dimension to the lowest, so the continuation after
// dimension d reads the values this call has just written for the higher
// dimensions (forward substitution).
//
//khs:hotpath
func (m *hyperModel) Iterate(in, out []float64) error {
	n := m.s.Dims
	sh := in[:n]
	sr := in[n : 2*n]
	shOut, srOut := out[:n], out[n:2*n]

	// Mean regular service over dimensions (used as the competing-class
	// service on every channel).
	srMean := 0.0
	for d := 0; d < n; d++ {
		srMean += sr[d]
	}
	srMean /= float64(n)

	// A channel off the hot tree carries regular traffic only; its delay
	// is the same in every dimension.
	bQuiet, errQuiet := m.blocking(&m.cQuiet, srMean, 0)
	for d := 0; d < n; d++ {
		// Hot channel of dimension d: regular competitors plus the
		// aggregated hot flow.
		b, err := m.blocking(&m.cHot[d], srMean, sh[d])
		if err != nil {
			return fmt.Errorf("%w (hypercube hot channel, dim %d)", ErrSaturated, d)
		}
		if errQuiet != nil {
			return fmt.Errorf("%w (hypercube quiet channel, dim %d)", ErrSaturated, d)
		}
		m.bHot[d] = b
	}
	for d := n - 1; d >= 0; d-- {
		done := m.nextWeights(d)
		// Continuation after crossing dimension d.
		contHot := done * m.lm
		contReg := done * m.lm
		for d2 := d + 1; d2 < n; d2++ {
			contHot += m.next[d2] * shOut[d2]
			contReg += m.next[d2] * srOut[d2]
		}
		shOut[d] = 1 + m.bHot[d] + contHot
		// A regular message crosses a hot channel of dim d with
		// probability pHotChan[d]; otherwise the channel carries regular
		// traffic only.
		bReg := m.pHotChan[d]*m.bHot[d] + (1-m.pHotChan[d])*bQuiet
		srOut[d] = 1 + bReg + contReg
	}
	return nil
}

func init() {
	Register("hypercube", Spec{K: 2}, func(s Spec, o Options) (Solver, error) {
		if s.K != 2 {
			return nil, fieldErrf("k", "core: the hypercube is the 2-ary n-cube, got K = %d", s.K)
		}
		return newHyperModel(s, o), nil
	})
}

// Assemble computes the latency decomposition from the converged state.
func (m *hyperModel) Assemble(state []float64, conv Convergence) (*SolveResult, error) {
	n := m.s.Dims
	sh := state[:n]
	sr := state[n : 2*n]

	// Entrance service times: the first crossed dimension of a uniform (or
	// hot) destination is dimension d with probability 2^-(d+1),
	// conditioned on at least one dimension differing.
	rem := 1.0
	for d := 0; d < n; d++ {
		rem /= 2
	}
	norm := 1 - rem // = P(dst != src)
	entHot, entReg := 0.0, 0.0
	pFirst := 1.0
	for d := 0; d < n; d++ {
		pFirst /= 2 // 2^-(d+1)
		entHot += pFirst / norm * sh[d]
		entReg += pFirst / norm * sr[d]
	}

	srMean := 0.0
	for d := 0; d < n; d++ {
		srMean += sr[d]
	}
	srMean /= float64(n)

	// Source queue: rate lambda/V, service = class mix of entrances.
	lv := m.s.Lambda / float64(m.s.V)
	mix := (1-m.s.H)*entReg + m.s.H*entHot
	ws, err := queueing.MG1Wait(lv, mix, 0)
	if err != nil {
		return nil, fmt.Errorf("%w (hypercube source queue)", ErrSaturated)
	}

	// Multiplexing degree averaged over all channels.
	vSum := 0.0
	maxUtil := m.lu * srMean // a channel off the hot tree
	for d := 0; d < n; d++ {
		sBarHot := queueing.WeightedService(m.lu, srMean, m.lh[d], sh[d])
		if u := (m.lu + m.lh[d]) * sBarHot; u > maxUtil {
			maxUtil = u
		}
		vHot, err := vcmodel.Degree(m.s.V, m.lu+m.lh[d], sBarHot)
		if err != nil {
			return nil, err
		}
		vQuiet, err := vcmodel.Degree(m.s.V, m.lu, srMean)
		if err != nil {
			return nil, err
		}
		vSum += m.pHotChan[d]*vHot + (1-m.pHotChan[d])*vQuiet
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
