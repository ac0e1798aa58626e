// Package core implements the paper's primary contribution: the analytical
// model of mean message latency in a deterministically-routed, wormhole-
// switched 2-D torus (k-ary 2-cube) carrying hot-spot traffic
// (Loucif, Ould-Khaoua, Min; IPDPS 2005, Section 3), together with
// uniform-traffic baseline models.
//
// Model structure (equation numbers follow the paper):
//
//   - traffic rates: regular traffic is uniform over channels (Eq. 3);
//     hot-spot traffic concentrates on the channels of the "hot y-ring"
//     (the column of the hot node) and decays with distance from it
//     (Eqs. 4-9);
//   - service times: position-indexed recursions S_j = 1 + B_j + S_{j-1}
//     with terminal value Lm (body drain), for five regular-message path
//     classes (Eqs. 11-20) and two hot-spot path classes (Eqs. 21-25);
//   - blocking: B = Pb * wc (Eqs. 26-30), with Pb the chance that all V
//     virtual channels are held and wc the wait of an M/G/1 whose service
//     is the link's deterministic flit time Lm+1 (DESIGN.md §4.7);
//   - source queue: M/G/1 with arrival rate lambda/V and node-position-
//     dependent service time (Eqs. 31-32);
//   - virtual channels: Dally's multiplexing degree V̄ scales the final
//     latencies (Eqs. 33-37);
//   - the interdependent equations are solved by fixed-point iteration
//     (the paper's "iterative techniques"), damped substitution with
//     Anderson acceleration by default.
package core

import (
	"errors"
	"fmt"

	"kncube/internal/fixpoint"
	"kncube/internal/queueing"
	"kncube/internal/vcmodel"
)

// ErrSaturated reports an offered load at or beyond the model's saturation
// point: some channel or source queue reaches utilisation 1 and the latency
// diverges.
var ErrSaturated = errors.New("core: network saturated at this load")

// kBar returns k̄ = (K-1)/2, the mean unidirectional ring distance (Eq. 1).
func kBar(k int) float64 { return float64(k-1) / 2 }

// BlockingForm selects the blocking-delay composition (ablation B).
type BlockingForm int

const (
	// BlockingVCOccupancy (the zero-value default) composes Eq. 26's
	// B = Pb·wc with: Pb from the paper's own virtual-channel occupancy
	// chain (Eqs. 33-34) — a header is blocked only when all V virtual
	// channels of the link are held, evaluated at the holding-time
	// utilisation of Eq. 27 — and wc from an M/G/1 whose service is the
	// physical link's flit transmission time Lm+1 (while a header stalls
	// the link serves other virtual channels, so link bandwidth bounds
	// the queue). Its stability boundary coincides with the flit
	// capacity, which is where the paper's figures place saturation; see
	// DESIGN.md §4.7 and EXPERIMENTS.md for the calibration against the
	// simulator.
	BlockingVCOccupancy BlockingForm = iota
	// BlockingMultiServer treats the V virtual channels as an M/G/V
	// server pool: a header waits for any free virtual channel, so the
	// blocking delay is the Erlang-C (Lee-Longton) M/G/c waiting time at
	// the aggregate channel rate. The most accurate form at light and
	// moderate load, but it too loses its fixed point early: it is the
	// light-load reference a change to the default must match.
	BlockingMultiServer BlockingForm = 3 // .khsf defs, shape keys and goldens store the number; 1, 2 and 4 are retired
)

// Options tune the model's reconstruction knobs and its solver.
type Options struct {
	Blocking BlockingForm
	// FixPoint configures the iteration; each zero Tolerance,
	// MaxIterations or Damping takes its fixpoint.Defaults() value, the
	// tolerances the models were calibrated with, and the zero
	// Acceleration is Anderson (fixpoint.AccelNone opts out).
	FixPoint fixpoint.Options
}

// Validate refuses blocking forms no solver implements, among them the
// retired numbers (paper 1, wait-only 2, bandwidth 4; DESIGN.md §4.7).
// Every registry entry point applies it, and surface.Def.Validate applies
// it to persisted surface definitions.
func (o Options) Validate() error {
	switch o.Blocking {
	case BlockingVCOccupancy, BlockingMultiServer:
	default:
		return fieldErrf("options.blocking", "core: unknown blocking form %d (vc-occupancy 0, multi-server 3)", o.Blocking)
	}
	return nil
}

// layout segments the flattened fixed-point vector (see state.go for the
// shared seg machinery).
type layout struct {
	shybar  seg   // k-1 values: regular, non-hot y-ring
	shy     seg   // k-1: regular, hot y-ring
	sx      seg   // k-1: regular, x only
	sxhy    seg   // k-1: regular, x then hot y-ring
	sxhybar seg   // k-1: regular, x then non-hot y-ring
	shoty   seg   // k-1: hot-spot in hot ring
	shotx   []seg // per row t = 1..k: hot-spot at column distance j = 1..k-1
	size    int
}

func newLayout(k int) layout {
	m := k - 1
	var b vecBuilder
	var l layout
	l.shybar = b.seg(m)
	l.shy = b.seg(m)
	l.sx = b.seg(m)
	l.sxhy = b.seg(m)
	l.sxhybar = b.seg(m)
	l.shoty = b.seg(m)
	if k > 0 {
		l.shotx = make([]seg, k+1)
		for t := 1; t <= k; t++ {
			l.shotx[t] = b.seg(m)
		}
	}
	l.size = b.Size()
	return l
}

type model struct {
	solverBase
	s        Spec
	prepared bool
	l        layout
	lr       float64   // Eq. 3
	lhy      []float64 // Eq. 7, index j = 1..k (j = k is zero)
	lhx      []float64 // Eq. 6, index j = 1..k (j = k is zero)
	pHy      float64   // case probabilities (Eqs. 11-15); see DESIGN.md §4.4
	pHyB     float64
	pX       float64
	cXo      float64 // P(x only | via x)
	cXHy     float64 // P(x then hot y | via x)
	cXHb     float64 // P(x then non-hot y | via x)

	// Channel classes, rebuilt by SetLambda: the non-hot y-ring channel,
	// the hot y-ring channels ([l], l = 1..k) and the x-channels ([l],
	// l = 1..k, the same on every x-ring).
	cHyB    channel
	cHy, cX []channel

	// Round scratch, built at Prepare: the per-channel blocking delays of
	// the hot y-ring ([l], l = 1..k) and of the x-rings ([t][l],
	// l = 1..k-1).
	bHy []float64
	bX  [][]float64
	// Assembly scratch, built at Prepare: the source waits of the hot-ring
	// nodes ([j], j = 1..k-1) and of the x-ring nodes ([t][j]), and the
	// multiplexing degrees of the hot-ring channels ([l], l = 1..k) and of
	// the x-ring channels ([t][l]).
	wsY, vHyAt []float64
	wsX, vXAt  [][]float64
}

func newModel(s Spec, o Options) *model {
	return &model{solverBase: newSolverBase(o, s.V, s.Lm), s: s}
}

// Prepare builds the spec-invariant machinery: the flat-state layout, the
// case probabilities (functions of K only), and the hot-spot rate arrays,
// then derives the rates for the constructed load.
func (m *model) Prepare() {
	if m.prepared {
		m.SetLambda(m.s.Lambda)
		return
	}
	k := m.s.K
	if k < 0 {
		k = 0
	}
	m.l = newLayout(k)
	m.lhy = make([]float64, k+1)
	m.lhx = make([]float64, k+1)
	m.cHy = make([]channel, k+1)
	m.cX = make([]channel, k+1)
	kf := float64(k)
	m.pHy = 1 / (kf * (kf + 1))
	m.pHyB = (kf - 1) / (kf * (kf + 1))
	m.pX = kf / (kf + 1)
	m.cXo = 1 / kf
	m.cXHy = (kf - 1) / (kf * kf)
	m.cXHb = (kf - 1) * (kf - 1) / (kf * kf)
	m.bHy = make([]float64, k+1)
	m.bX = make([][]float64, k+1)
	m.wsY = make([]float64, k)
	m.wsX = make([][]float64, k+1)
	m.vHyAt = make([]float64, k+1)
	m.vXAt = make([][]float64, k+1)
	for t := 1; t <= k; t++ {
		m.bX[t] = make([]float64, k)
		m.wsX[t] = make([]float64, k)
		m.vXAt[t] = make([]float64, k+1)
	}
	m.prepared = true
	m.SetLambda(m.s.Lambda)
}

// held is the bytes of the buffers Prepare built (see heldSizer).
func (m *model) held() int {
	return bytesOf(m.l.shotx) + bytesOf(m.lhy) + bytesOf(m.lhx) + bytesOf(m.cHy) + bytesOf(m.cX) +
		bytesOf(m.bHy) + bytesOf2(m.bX) + bytesOf(m.wsY) + bytesOf2(m.wsX) + bytesOf(m.vHyAt) + bytesOf2(m.vXAt)
}

// SetLambda recomputes the λ-dependent traffic rates (Eqs. 3, 6-7) and
// the channel classes they load in place; everything else is
// load-invariant.
//
//khs:hotpath
func (m *model) SetLambda(lambda float64) {
	m.s.Lambda = lambda
	s := m.s
	k := len(m.lhy) - 1
	m.lr = s.Lambda * (1 - s.H) * kBar(s.K)
	m.cHyB = m.channel(m.lr, 0)
	for j := 1; j <= k; j++ {
		m.lhy[j] = s.Lambda * s.H * float64(k) * float64(k-j)
		m.lhx[j] = s.Lambda * s.H * float64(k-j)
		m.cHy[j] = m.channel(m.lr, m.lhy[j])
		m.cX[j] = m.channel(m.lr, m.lhx[j])
	}
}

// entrance reduces a service-time segment of x (remaining hops 1..k-1)
// to the mean service time seen at ring entry: the average of S(b) over
// the uniform destination ring distance b (DESIGN.md §4.6).
func (m *model) entrance(x []float64, s seg) float64 {
	k := m.s.K
	sum := 0.0
	for j := 1; j <= k-1; j++ {
		sum += s.at(x, j)
	}
	return sum / float64(k-1)
}

// Iterate is the fixed-point map: out = F(in), the re-evaluation of
// Eqs. 16-20, 23 and 25. Every blocking delay is taken from in; the
// position recursions read only the entries of out written earlier in the
// same call.
//
//khs:hotpath
func (m *model) Iterate(in, out []float64) error {
	k := m.s.K
	entHyB := m.entrance(in, m.l.shybar)
	entHy := m.entrance(in, m.l.shy)
	// Mixture service of regular traffic on x-channels (the S^r_{x,k̄} of
	// Eqs. 18-20): weighted over the three onward-path classes.
	entXmix := m.cXo*m.entrance(in, m.l.sx) + m.cXHy*m.entrance(in, m.l.sxhy) + m.cXHb*m.entrance(in, m.l.sxhybar)

	// Blocking on non-hot y-ring channels (Eq. 16): regular traffic only.
	bHyB, err := m.blocking(&m.cHyB, entHyB, 0)
	if err != nil {
		return fmt.Errorf("%w (non-hot y-ring)", ErrSaturated)
	}
	// Blocking seen by a regular message on the hot y-ring (Eq. 17):
	// position-averaged over the k channels of the ring. The per-channel
	// delays are kept for the hot-spot recursion of Eq. 23, which sees the
	// same channels with the same arguments.
	bHy := 0.0
	for l := 1; l <= k; l++ {
		sh := 0.0
		if l <= k-1 {
			sh = m.l.shoty.at(in, l)
		}
		b, err := m.blocking(&m.cHy[l], entHy, sh)
		if err != nil {
			return fmt.Errorf("%w (hot y-ring, channel %d)", ErrSaturated, l)
		}
		m.bHy[l] = b
		bHy += b
	}
	bHy /= float64(k)
	// Blocking seen by a regular message on an x-channel (Eqs. 18-20):
	// averaged over the k x-rings and k channel positions, the per-channel
	// delays kept for Eq. 25. Channel k carries no hot-spot traffic, so its
	// delay is the same on every ring.
	bQuiet, errQuiet := m.blocking(&m.cX[k], entXmix, 0)
	bX := 0.0
	for t := 1; t <= k; t++ {
		for l := 1; l <= k-1; l++ {
			b, err := m.blocking(&m.cX[l], entXmix, m.l.shotx[t].at(in, l))
			if err != nil {
				return fmt.Errorf("%w (x-ring %d, channel %d)", ErrSaturated, t, l)
			}
			m.bX[t][l] = b
			bX += b
		}
		if errQuiet != nil {
			return fmt.Errorf("%w (x-ring %d, channel %d)", ErrSaturated, t, k)
		}
		bX += bQuiet
	}
	bX /= float64(k * k)

	// Regular recursions. Terminal value Lm is the body drain through the
	// ejection channel; each hop adds 1 cycle of header transfer plus the
	// class blocking delay. Eq. 19: after the last x hop the message
	// enters the hot or non-hot y-ring. Each position builds on the
	// value this call just wrote for the position before it (forward
	// substitution), so a change travels the whole ring in one round.
	hyb, hy, x, xhy, xhyb := m.lm, m.lm, m.lm, entHy, entHyB
	for j := 1; j <= k-1; j++ {
		hyb, hy, x = 1+bHyB+hyb, 1+bHy+hy, 1+bX+x
		xhy, xhyb = 1+bX+xhy, 1+bX+xhyb
		m.l.shybar.put(out, j, hyb)
		m.l.shy.put(out, j, hy)
		m.l.sx.put(out, j, x)
		m.l.sxhy.put(out, j, xhy)
		m.l.sxhybar.put(out, j, xhyb)
	}

	// Hot-spot recursion in the hot ring (Eq. 23): position j is also the
	// remaining hop count, so the blocking uses the position's own rates.
	hot := m.lm
	for j := 1; j <= k-1; j++ {
		hot = 1 + m.bHy[j] + hot
		m.l.shoty.put(out, j, hot)
	}
	// Hot-spot recursion on x-rings (Eq. 25), entering the hot ring
	// through the value just written for it.
	for t := 1; t <= k; t++ {
		hot = m.lm // hot row: the last x hop arrives at the hot node
		if t < k {
			hot = m.l.shoty.at(out, t) // enter the hot ring t hops from the hot node
		}
		for j := 1; j <= k-1; j++ {
			hot = 1 + m.bX[t][j] + hot
			m.l.shotx[t].put(out, j, hot)
		}
	}
	return nil
}

func (m *model) StateSize() int { return m.l.size }

// maxTorusK is the largest 2-D torus radix validateTorus accepts: the
// torus state grows as K², and (K+6)(K-1) stays under maxStateSize.
const maxTorusK = 1 << 10

// validateTorus is the 2-D torus variants' range check (hotspot-2d and
// bidirectional-2d; their rules check Dims = 2 first).
func validateTorus(s Spec) error {
	if s.K < 2 || s.K > maxTorusK {
		return fieldErrf("k", "core: K = %d, want 2..%d", s.K, maxTorusK)
	}
	return s.checkRanges(2)
}

// InitState fills the zero-load (blocking-free) service times.
func (m *model) InitState(x []float64) {
	k := m.s.K
	for j := 1; j <= k-1; j++ {
		base := m.lm + float64(j)
		m.l.shybar.put(x, j, base)
		m.l.shy.put(x, j, base)
		m.l.sx.put(x, j, base)
		m.l.shoty.put(x, j, base)
	}
	// x-then-y classes terminate into the entrance of a y-ring.
	entY := m.lm + float64(k)/2
	for j := 1; j <= k-1; j++ {
		m.l.sxhy.put(x, j, entY+float64(j))
		m.l.sxhybar.put(x, j, entY+float64(j))
	}
	for t := 1; t <= k; t++ {
		for j := 1; j <= k-1; j++ {
			y := float64(t)
			if t == k {
				y = 0
			}
			m.l.shotx[t].put(x, j, m.lm+float64(j)+y)
		}
	}
}

func init() {
	Register("hotspot-2d", Spec{Dims: 2}, func(s Spec) error {
		if s.Dims != 2 {
			return fieldErrf("dims", "core: hotspot-2d models the 2-D torus, got Dims = %d", s.Dims)
		}
		return validateTorus(s)
	}, func(s Spec, o Options) Solver { return newModel(s, o) })
}

// Assemble computes Eqs. 10-15, 21-24 and 31-37 from the converged service
// times.
func (m *model) Assemble(x []float64, conv Convergence) (*SolveResult, error) {
	p, k := m.s, m.s.K
	kf := float64(k)
	n := kf * kf

	entHyB := m.entrance(x, m.l.shybar)
	entHy := m.entrance(x, m.l.shy)
	entXmix := m.cXo*m.entrance(x, m.l.sx) + m.cXHy*m.entrance(x, m.l.sxhy) + m.cXHb*m.entrance(x, m.l.sxhybar)

	// Eq. 31: the mean network latency of a regular message.
	sr := m.pHy*entHy + m.pHyB*entHyB + m.pX*entXmix

	// Eq. 32: source-queue waiting averaged over node positions; the
	// per-VC arrival rate is lambda/V.
	lv := p.Lambda / float64(p.V)
	wait := func(s float64) (float64, error) {
		return queueing.MG1Wait(lv, s, 0)
	}
	wsHot := func(sHot float64) (float64, error) {
		return wait((1-p.H)*sr + p.H*sHot)
	}
	wsSum, err := wait(sr) // the hot node generates only regular traffic
	if err != nil {
		return nil, fmt.Errorf("%w (source queue, hot node)", ErrSaturated)
	}
	wsY, wsX := m.wsY, m.wsX
	for j := 1; j <= k-1; j++ {
		w, err := wsHot(m.l.shoty.at(x, j))
		if err != nil {
			return nil, fmt.Errorf("%w (source queue, hot ring %d)", ErrSaturated, j)
		}
		wsY[j] = w
		wsSum += w
	}
	for t := 1; t <= k; t++ {
		for j := 1; j <= k-1; j++ {
			w, err := wsHot(m.l.shotx[t].at(x, j))
			if err != nil {
				return nil, fmt.Errorf("%w (source queue, node %d,%d)", ErrSaturated, t, j)
			}
			wsX[t][j] = w
			wsSum += w
		}
	}
	wsReg := wsSum / n

	// Eqs. 33-37: virtual-channel multiplexing degrees.
	vHyB, err := vcmodel.Degree(p.V, m.lr, entHyB)
	if err != nil {
		return nil, err
	}
	vHyAt, vXAt := m.vHyAt, m.vXAt
	vHySum := 0.0
	maxUtil := 0.0
	for j := 1; j <= k; j++ {
		sh := 0.0
		if j <= k-1 {
			sh = m.l.shoty.at(x, j)
		}
		tot := m.lr + m.lhy[j]
		sBar := queueing.WeightedService(m.lr, entHy, m.lhy[j], sh)
		if u := tot * sBar; u > maxUtil {
			maxUtil = u
		}
		d, err := vcmodel.Degree(p.V, tot, sBar)
		if err != nil {
			return nil, err
		}
		vHyAt[j] = d
		vHySum += d
	}
	vHy := vHySum / kf // Eq. 36

	vXSum := 0.0
	for t := 1; t <= k; t++ {
		for j := 1; j <= k; j++ {
			sh := 0.0
			if j <= k-1 {
				sh = m.l.shotx[t].at(x, j)
			}
			tot := m.lr + m.lhx[j]
			sBar := queueing.WeightedService(m.lr, entXmix, m.lhx[j], sh)
			if u := tot * sBar; u > maxUtil {
				maxUtil = u
			}
			d, err := vcmodel.Degree(p.V, tot, sBar)
			if err != nil {
				return nil, err
			}
			vXAt[t][j] = d
			vXSum += d
		}
	}
	vX := vXSum / (kf * kf) // Eq. 37

	// Eqs. 11-15: regular latency with per-case multiplexing scaling.
	sRegular := m.pHy*(entHy+wsReg)*vHy +
		m.pHyB*(entHyB+wsReg)*vHyB +
		m.pX*(entXmix+wsReg)*vX

	// Eqs. 21-24: hot-spot latency averaged over the N-1 source positions,
	// scaled by the multiplexing degree averaged along the actual path
	// (DESIGN.md §4.9).
	pathVy := func(j int) float64 { // mean V̄ over hot-ring channels 1..j
		s := 0.0
		for l := 1; l <= j; l++ {
			s += vHyAt[l]
		}
		return s / float64(j)
	}
	hotSum := 0.0
	for j := 1; j <= k-1; j++ {
		hotSum += (m.l.shoty.at(x, j) + wsY[j]) * pathVy(j)
	}
	for t := 1; t <= k; t++ {
		// The x-leg's prefix sum runs along the row, accumulated in the
		// order a fresh sum over channels 1..j takes; the y-leg's is summed
		// afresh on top of it, keeping every addition in place.
		xPrefix := 0.0
		for j := 1; j <= k-1; j++ {
			xPrefix += vXAt[t][j]
			vsum, cnt := xPrefix, j
			if t < k {
				for l := 1; l <= t; l++ {
					vsum += vHyAt[l]
				}
				cnt += t
			}
			vp := vsum / float64(cnt)
			hotSum += (m.l.shotx[t].at(x, j) + wsX[t][j]) * vp
		}
	}
	sHot := hotSum / (n - 1)

	// Channel-count-weighted mean multiplexing degree: k² x-channels, k hot
	// y-ring channels, k(k-1) non-hot y-ring channels.
	vbar := (kf*kf*vX + kf*vHy + kf*(kf-1)*vHyB) / (2 * kf * kf)
	return &SolveResult{
		Latency:        (1-p.H)*sRegular + p.H*sHot, // Eq. 10
		Regular:        sRegular,
		Hot:            sHot,
		SourceWait:     wsReg,
		VBar:           vbar,
		MaxUtilisation: maxUtil,
		Convergence:    conv,
	}, nil
}
