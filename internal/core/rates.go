package core

// ChannelRates exposes the traffic-rate equations (Eqs. 3-9) for
// inspection, testing, and capacity analysis.
type ChannelRates struct {
	// Regular is the uniform per-channel rate of regular traffic,
	// lambda·(1-h)·k̄ (Eq. 3), identical on every channel of both
	// dimensions.
	Regular float64
	// HotY[j] is the hot-spot rate on the hot ring's y-channel j hops
	// from the hot node, lambda·h·k·(k-j) (Eq. 7); index 0 unused,
	// HotY[k] = 0 (the hot node's own outgoing channel).
	HotY []float64
	// HotX[j] is the hot-spot rate on any x-channel j hops from the hot
	// column, lambda·h·(k-j) (Eq. 6); index 0 unused, HotX[k] = 0.
	HotX []float64
}

// Rates evaluates Eqs. 3-9 of the paper's model ("hotspot-2d") for a spec
// that model accepts.
func Rates(s Spec) (ChannelRates, error) {
	sol, err := NewSolver("hotspot-2d", s, Options{})
	if err != nil {
		return ChannelRates{}, err
	}
	m := sol.(*model)
	m.Prepare()
	cr := ChannelRates{
		Regular: m.lr,
		HotY:    make([]float64, m.s.K+1),
		HotX:    make([]float64, m.s.K+1),
	}
	copy(cr.HotY, m.lhy)
	copy(cr.HotX, m.lhx)
	return cr, nil
}

// TotalHotYCrossings returns the sum over hot-ring channels of the hot
// traffic rate divided by lambda·h: the expected number of y-channel
// crossings per generated hot message times (N-1)-ish — used by the
// conservation tests.
func (c ChannelRates) TotalHotYCrossings(lambda, h float64) float64 {
	sum := 0.0
	for _, r := range c.HotY {
		sum += r
	}
	return sum / (lambda * h)
}

// BottleneckUtilisation returns the flit utilisation of the busiest channel
// (the hot ring's j = 1 channel) for message length lm: the quantity whose
// approach to 1 sets the network's saturation point.
func (c ChannelRates) BottleneckUtilisation(lm int) float64 {
	if len(c.HotY) < 2 {
		return 0
	}
	return (c.Regular + c.HotY[1]) * float64(lm)
}

// CapacityLambda returns the offered load at which the bottleneck channel
// of a K-ary 2-cube with hot fraction h and message length lm reaches unit
// flit utilisation: 1 / (h·k·(k-1)·lm + (1-h)·k̄·lm). The paper's figure
// axes track this bound.
func CapacityLambda(k, lm int, h float64) float64 {
	kbar := float64(k-1) / 2
	denom := (h*float64(k)*float64(k-1) + (1-h)*kbar) * float64(lm)
	return 1 / denom
}
