package core

// Bidirectional extension of the hot-spot model. Section 2 of the paper
// analyses the unidirectional torus and notes that the analysis "can be
// easily extended to deal with [the] bi-directional case"; this file is
// that extension, kept structurally parallel to the unidirectional model
// of hotspot.go so the two can be read side by side.
//
// With bidirectional links each dimension consists of two disjoint
// unidirectional rings (positive and negative) and minimal deterministic
// routing sends a message along the shorter one, ties to the positive ring
// (matching the simulator). For radix k the positive ring carries offsets
// 1..floor(k/2) and the negative ring offsets 1..ceil(k/2)-1, so the two
// direction classes have maximum hop counts
//
//	D+ = floor(k/2),  D- = ceil(k/2) - 1,
//
// and every equation of Section 3 splits per direction class: per-channel
// regular rates (Eq. 3), hot-spot channel populations (Eqs. 4-7), the
// service-time recursions (Eqs. 16-25), the blocking averages, the source
// queue (Eq. 32) and the multiplexing degrees (Eqs. 33-37).

import (
	"fmt"

	"kncube/internal/queueing"
	"kncube/internal/vcmodel"
)

// biLayout assigns each direction-split service-time vector its segment of
// the flat fixed-point state.
type biLayout struct {
	shybar, shy, sx, sxhy, sxhybar, shoty [2]seg
	shotx                                 [2][]seg // [dir][row]
}

// biModel carries the direction-split constants.
type biModel struct {
	solverBase
	s        Spec
	prepared bool
	l        biLayout
	n        int          // flat state size
	d        [2]int       // max hops per direction class: {floor(k/2), ceil(k/2)-1}
	r        [2]float64   // regular per-channel rate per direction class
	hx       [2][]float64 // hot rate on x-channels, [dir][1..d[dir]]
	hy       [2][]float64 // hot rate on hot-column channels, [dir][1..d[dir]]
	// Channel classes per direction, rebuilt by SetLambda: a channel with
	// regular traffic only, the hot-column channels and the x-channels,
	// [dir][1..d[dir]].
	cQuiet  [2]channel
	cHy, cX [2][]channel

	pHy, pHyB, pX   float64
	cXo, cXHy, cXHb float64
	rows            []biRow // the k x-rings classified by y direction/distance

	// Round scratch, built at Prepare: the per-channel blocking delays of
	// the hot column ([dir][l]) and of the x-rings ([dir][row][l]),
	// l = 1..d[dir].
	bHy [2][]float64
	bX  [2][][]float64
	// Assembly scratch, built at Prepare: the source waits of the
	// hot-column nodes ([dir][t], t = 1..d[dir]) and of the x-ring nodes
	// ([dir][row][j], j = 1..d[dir]), and the multiplexing degrees of the
	// hot-column channels ([dir][l]) and of the x-ring channels
	// ([dir][row][l]), l = 1..k.
	wsY, vHyAt [2][]float64
	wsX, vXAt  [2][][]float64
}

// biRow classifies one x-ring relative to the hot node: dir/dist of the
// y-leg its hot-spot messages take after reaching the hot column; hotRow
// marks the hot node's own ring (no y-leg).
type biRow struct {
	hotRow bool
	dir    int // y direction class (0 = positive, 1 = negative)
	dist   int // y hops remaining, 1..d[dir]
}

func newBiModel(s Spec, o Options) *biModel {
	return &biModel{solverBase: newSolverBase(o, s.V, s.Lm), s: s}
}

// Prepare builds the spec-invariant machinery: direction classes, row
// classification, the flat-state layout and case probabilities, then
// derives the rates for the constructed load.
func (m *biModel) Prepare() {
	if m.prepared {
		m.SetLambda(m.s.Lambda)
		return
	}
	k := m.s.K
	if k < 0 {
		k = 0
	}
	m.d[0] = k / 2
	m.d[1] = (k+1)/2 - 1
	if m.d[1] < 0 {
		m.d[1] = 0
	}
	for i := 0; i < 2; i++ {
		m.hx[i] = make([]float64, m.d[i]+1)
		m.hy[i] = make([]float64, m.d[i]+1)
		m.cHy[i] = make([]channel, m.d[i]+1)
		m.cX[i] = make([]channel, m.d[i]+1)
	}
	kf := float64(k)
	if k > 0 {
		m.pHy = 1 / (kf * (kf + 1))
		m.pHyB = (kf - 1) / (kf * (kf + 1))
		m.pX = kf / (kf + 1)
		m.cXo = 1 / kf
		m.cXHy = (kf - 1) / (kf * kf)
		m.cXHb = (kf - 1) * (kf - 1) / (kf * kf)
	}
	// Rows: hot row first, then positive-direction rows by distance, then
	// negative-direction rows.
	m.rows = append(m.rows, biRow{hotRow: true})
	for i := 0; i < 2; i++ {
		for t := 1; t <= m.d[i]; t++ {
			m.rows = append(m.rows, biRow{dir: i, dist: t})
		}
	}
	// Flat-state layout: per direction the six shared vectors, then one
	// hot-path segment per row.
	var b vecBuilder
	for i := 0; i < 2; i++ {
		m.l.shybar[i] = b.seg(m.d[i])
		m.l.shy[i] = b.seg(m.d[i])
		m.l.sx[i] = b.seg(m.d[i])
		m.l.sxhy[i] = b.seg(m.d[i])
		m.l.sxhybar[i] = b.seg(m.d[i])
		m.l.shoty[i] = b.seg(m.d[i])
		m.l.shotx[i] = make([]seg, len(m.rows))
		for r := range m.rows {
			m.l.shotx[i][r] = b.seg(m.d[i])
		}
	}
	m.n = b.Size()
	for i := 0; i < 2; i++ {
		m.bHy[i] = make([]float64, m.d[i]+1)
		m.bX[i] = make([][]float64, len(m.rows))
		m.wsY[i] = make([]float64, m.d[i]+1)
		m.wsX[i] = make([][]float64, len(m.rows))
		m.vHyAt[i] = make([]float64, k+1)
		m.vXAt[i] = make([][]float64, len(m.rows))
		for r := range m.rows {
			m.bX[i][r] = make([]float64, m.d[i]+1)
			m.wsX[i][r] = make([]float64, m.d[i]+1)
			m.vXAt[i][r] = make([]float64, k+1)
		}
	}
	m.prepared = true
	m.SetLambda(m.s.Lambda)
}

// held is the bytes of the buffers Prepare built (see heldSizer).
func (m *biModel) held() int {
	n := bytesOf(m.rows)
	for i := 0; i < 2; i++ {
		n += bytesOf(m.l.shotx[i]) + bytesOf(m.hx[i]) + bytesOf(m.hy[i]) + bytesOf(m.cHy[i]) + bytesOf(m.cX[i]) +
			bytesOf(m.bHy[i]) + bytesOf2(m.bX[i]) + bytesOf(m.wsY[i]) + bytesOf2(m.wsX[i]) +
			bytesOf(m.vHyAt[i]) + bytesOf2(m.vXAt[i])
	}
	return n
}

// SetLambda recomputes the direction-split traffic rates and the channel
// classes they load in place.
//
//khs:hotpath
func (m *biModel) SetLambda(lambda float64) {
	m.s.Lambda = lambda
	p := m.s
	k := p.K
	if k < 0 {
		k = 0
	}
	for i := 0; i < 2; i++ {
		sum := 0
		for j := 1; j <= m.d[i]; j++ {
			sum += j
		}
		if k > 0 {
			m.r[i] = p.Lambda * (1 - p.H) * float64(sum) / float64(k)
		}
		m.cQuiet[i] = m.channel(m.r[i], 0)
		for j := 1; j <= m.d[i]; j++ {
			// Sources at direction-i distance >= j cross channel j.
			count := float64(m.d[i] - j + 1)
			m.hx[i][j] = p.Lambda * p.H * count
			m.hy[i][j] = p.Lambda * p.H * float64(k) * count
			m.cHy[i][j] = m.channel(m.r[i], m.hy[i][j])
			m.cX[i][j] = m.channel(m.r[i], m.hx[i][j])
		}
	}
}

func (m *biModel) StateSize() int { return m.n }

// InitState writes the zero-load starting point.
func (m *biModel) InitState(x []float64) {
	for i := 0; i < 2; i++ {
		for j := 1; j <= m.d[i]; j++ {
			jf := float64(j)
			m.l.shybar[i].put(x, j, m.lm+jf)
			m.l.shy[i].put(x, j, m.lm+jf)
			m.l.sx[i].put(x, j, m.lm+jf)
			m.l.sxhy[i].put(x, j, m.lm+jf+float64(m.s.K)/4)
			m.l.sxhybar[i].put(x, j, m.lm+jf+float64(m.s.K)/4)
			m.l.shoty[i].put(x, j, m.lm+jf)
		}
		for r := range m.rows {
			extra := 0.0
			if !m.rows[r].hotRow {
				extra = float64(m.rows[r].dist)
			}
			for j := 1; j <= m.d[i]; j++ {
				m.l.shotx[i][r].put(x, j, m.lm+float64(j)+extra)
			}
		}
	}
}

// entrance averages a pair of direction-split segments of x over the k-1
// equally-likely destination offsets.
func (m *biModel) entrance(x []float64, v [2]seg) float64 {
	sum := 0.0
	for i := 0; i < 2; i++ {
		for j := 1; j <= m.d[i]; j++ {
			sum += v[i].at(x, j)
		}
	}
	return sum / float64(m.s.K-1)
}

// yNext returns the service continuation after the final x hop for a hot
// message generated in row r, read from the flat state x.
func (m *biModel) yNext(x []float64, r int) float64 {
	row := m.rows[r]
	if row.hotRow {
		return m.lm
	}
	return m.l.shoty[row.dir].at(x, row.dist)
}

// Iterate re-evaluates the direction-split recursions. Every blocking
// delay is taken from in; the position recursions read only the entries
// of out written earlier in the same call.
//
//khs:hotpath
func (m *biModel) Iterate(in, out []float64) error {
	k := m.s.K
	entHyB := m.entrance(in, m.l.shybar)
	entHy := m.entrance(in, m.l.shy)
	entXmix := m.cXo*m.entrance(in, m.l.sx) + m.cXHy*m.entrance(in, m.l.sxhy) + m.cXHb*m.entrance(in, m.l.sxhybar)

	var bHyB, bHy, bX [2]float64
	for i := 0; i < 2; i++ {
		b, err := m.blocking(&m.cQuiet[i], entHyB, 0)
		if err != nil {
			return fmt.Errorf("%w (bi non-hot y, dir %d)", ErrSaturated, i)
		}
		bHyB[i] = b
		// Hot-column blocking averaged over the ring's k channels of this
		// direction (positions beyond d[i] carry regular traffic only).
		// The per-channel delays are kept for the hot-spot recursions,
		// which see the same channels with the same arguments.
		sum := 0.0
		for l := 1; l <= m.d[i]; l++ {
			b, err := m.blocking(&m.cHy[i][l], entHy, m.l.shoty[i].at(in, l))
			if err != nil {
				return fmt.Errorf("%w (bi hot column, dir %d ch %d)", ErrSaturated, i, l)
			}
			m.bHy[i][l] = b
			sum += b
		}
		bQuiet, err := m.blocking(&m.cQuiet[i], entHy, 0)
		if err != nil {
			return fmt.Errorf("%w (bi hot column quiet, dir %d)", ErrSaturated, i)
		}
		bHy[i] = (sum + float64(k-m.d[i])*bQuiet) / float64(k)
		// x-channel blocking averaged over the k rows and k positions.
		sum = 0.0
		for r := range m.rows {
			for l := 1; l <= m.d[i]; l++ {
				b, err := m.blocking(&m.cX[i][l], entXmix, m.l.shotx[i][r].at(in, l))
				if err != nil {
					return fmt.Errorf("%w (bi x, dir %d row %d ch %d)", ErrSaturated, i, r, l)
				}
				m.bX[i][r][l] = b
				sum += b
			}
		}
		bQuietX, err := m.blocking(&m.cQuiet[i], entXmix, 0)
		if err != nil {
			return fmt.Errorf("%w (bi x quiet, dir %d)", ErrSaturated, i)
		}
		bX[i] = (sum + float64(len(m.rows)*(k-m.d[i]))*bQuietX) / float64(len(m.rows)*k)
	}

	// The position recursions substitute forward: each position builds on
	// the value this call just wrote for the position before it. A row's
	// hot-spot path enters the hot column of either direction, so both
	// directions' column recursions come before any x-ring recursion.
	for i := 0; i < 2; i++ {
		hyb, hy, x, xhy, xhyb, hot := m.lm, m.lm, m.lm, entHy, entHyB, m.lm
		for j := 1; j <= m.d[i]; j++ {
			hyb, hy, x = 1+bHyB[i]+hyb, 1+bHy[i]+hy, 1+bX[i]+x
			xhy, xhyb, hot = 1+bX[i]+xhy, 1+bX[i]+xhyb, 1+m.bHy[i][j]+hot
			m.l.shybar[i].put(out, j, hyb)
			m.l.shy[i].put(out, j, hy)
			m.l.sx[i].put(out, j, x)
			m.l.sxhy[i].put(out, j, xhy)
			m.l.sxhybar[i].put(out, j, xhyb)
			m.l.shoty[i].put(out, j, hot)
		}
	}
	for i := 0; i < 2; i++ {
		for r := range m.rows {
			hot := m.yNext(out, r)
			for j := 1; j <= m.d[i]; j++ {
				hot = 1 + m.bX[i][r][j] + hot
				m.l.shotx[i][r].put(out, j, hot)
			}
		}
	}
	return nil
}

func init() {
	Register("bidirectional-2d", Spec{Dims: 2}, func(s Spec) error {
		if s.Dims != 2 {
			return fieldErrf("dims", "core: the bidirectional-2d solver models a 2-D torus, got Dims = %d", s.Dims)
		}
		return validateTorus(s)
	}, func(s Spec, o Options) Solver { return newBiModel(s, o) })
}

// Assemble computes the latency decomposition from the converged state.
func (m *biModel) Assemble(x []float64, conv Convergence) (*SolveResult, error) {
	p, k := m.s, m.s.K
	entHyB := m.entrance(x, m.l.shybar)
	entHy := m.entrance(x, m.l.shy)
	entXmix := m.cXo*m.entrance(x, m.l.sx) + m.cXHy*m.entrance(x, m.l.sxhy) + m.cXHb*m.entrance(x, m.l.sxhybar)
	sr := m.pHy*entHy + m.pHyB*entHyB + m.pX*entXmix

	lv := p.Lambda / float64(p.V)
	wait := func(s float64) (float64, error) {
		return queueing.MG1Wait(lv, s, 0)
	}

	// Source waits: hot node, hot-column nodes, and the rest.
	wsSum, err := wait(sr)
	if err != nil {
		return nil, fmt.Errorf("%w (bi source queue, hot node)", ErrSaturated)
	}
	wsY, wsX := m.wsY, m.wsX
	for i := 0; i < 2; i++ {
		for t := 1; t <= m.d[i]; t++ {
			w, err := wait((1-p.H)*sr + p.H*m.l.shoty[i].at(x, t))
			if err != nil {
				return nil, fmt.Errorf("%w (bi source queue, hot column)", ErrSaturated)
			}
			wsY[i][t] = w
			wsSum += w
		}
	}
	for r := range m.rows {
		for i := 0; i < 2; i++ {
			for j := 1; j <= m.d[i]; j++ {
				w, err := wait((1-p.H)*sr + p.H*m.l.shotx[i][r].at(x, j))
				if err != nil {
					return nil, fmt.Errorf("%w (bi source queue, row %d)", ErrSaturated, r)
				}
				wsX[i][r][j] = w
				wsSum += w
			}
		}
	}
	n := float64(k * k)
	wsReg := wsSum / n

	// Multiplexing degrees (Eqs. 33-37, per direction class).
	vHyAt, vXAt := m.vHyAt, m.vXAt
	vHySum := 0.0
	maxUtil := 0.0
	for i := 0; i < 2; i++ {
		for l := 1; l <= k; l++ {
			lh, sh := 0.0, 0.0
			if l <= m.d[i] {
				lh, sh = m.hy[i][l], m.l.shoty[i].at(x, l)
			}
			tot := m.r[i] + lh
			sBar := queueing.WeightedService(m.r[i], entHy, lh, sh)
			if u := tot * sBar; u > maxUtil {
				maxUtil = u
			}
			deg, err := vcmodel.Degree(p.V, tot, sBar)
			if err != nil {
				return nil, err
			}
			vHyAt[i][l] = deg
			vHySum += deg
		}
	}
	vHy := vHySum / float64(2*k)

	vXSum := 0.0
	for r := range m.rows {
		for i := 0; i < 2; i++ {
			for l := 1; l <= k; l++ {
				lh, sh := 0.0, 0.0
				if l <= m.d[i] {
					lh, sh = m.hx[i][l], m.l.shotx[i][r].at(x, l)
				}
				tot := m.r[i] + lh
				sBar := queueing.WeightedService(m.r[i], entXmix, lh, sh)
				if u := tot * sBar; u > maxUtil {
					maxUtil = u
				}
				deg, err := vcmodel.Degree(p.V, tot, sBar)
				if err != nil {
					return nil, err
				}
				vXAt[i][r][l] = deg
				vXSum += deg
			}
		}
	}
	vX := vXSum / float64(len(m.rows)*2*k)

	var vHyB float64
	for i := 0; i < 2; i++ {
		if u := m.r[i] * entHyB; u > maxUtil {
			maxUtil = u
		}
		deg, err := vcmodel.Degree(p.V, m.r[i], entHyB)
		if err != nil {
			return nil, err
		}
		vHyB += deg
	}
	vHyB /= 2

	sRegular := m.pHy*(entHy+wsReg)*vHy +
		m.pHyB*(entHyB+wsReg)*vHyB +
		m.pX*(entXmix+wsReg)*vX

	// Hot-spot latency over the N-1 source positions, path-averaged V̄.
	var hotSum float64
	for i := 0; i < 2; i++ {
		for t := 1; t <= m.d[i]; t++ {
			vp := 0.0
			for l := 1; l <= t; l++ {
				vp += vHyAt[i][l]
			}
			vp /= float64(t)
			hotSum += (m.l.shoty[i].at(x, t) + wsY[i][t]) * vp
		}
	}
	for r, row := range m.rows {
		for i := 0; i < 2; i++ {
			// The x-leg's prefix sum runs along the row, in the order a
			// fresh sum takes; the y-leg's is summed afresh on top of it.
			xPrefix := 0.0
			for j := 1; j <= m.d[i]; j++ {
				xPrefix += vXAt[i][r][j]
				vsum, cnt := xPrefix, j
				if !row.hotRow {
					for l := 1; l <= row.dist; l++ {
						vsum += vHyAt[row.dir][l]
					}
					cnt += row.dist
				}
				hotSum += (m.l.shotx[i][r].at(x, j) + wsX[i][r][j]) * (vsum / float64(cnt))
			}
		}
	}
	sHot := hotSum / (n - 1)

	kf := float64(k)
	// Channel-population-weighted mean multiplexing degree: 2k^2 x-channels,
	// 2k hot-column channels, 2k(k-1) non-hot-column channels.
	vbar := (2*kf*kf*vX + 2*kf*vHy + 2*kf*(kf-1)*vHyB) / (4 * kf * kf)
	return &SolveResult{
		Latency:        (1-p.H)*sRegular + p.H*sHot,
		Regular:        sRegular,
		Hot:            sHot,
		SourceWait:     wsReg,
		VBar:           vbar,
		MaxUtilisation: maxUtil,
		Convergence:    conv,
	}, nil
}
