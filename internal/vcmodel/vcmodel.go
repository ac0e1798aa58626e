// Package vcmodel implements Dally's Markovian model of virtual-channel
// multiplexing (W.J. Dally, "Virtual-channel flow control", IEEE TPDS 3(2),
// 1992), as used by Eqs. 33-35 of Loucif, Ould-Khaoua, Min (IPDPS 2005).
//
// A physical channel carrying total traffic rate lambda with mean service
// time s multiplexes V virtual channels. The number of busy virtual channels
// evolves as a birth-death chain; from its stationary distribution the model
// derives the average multiplexing degree
//
//	V̄ = Σ v² Pv / Σ v Pv   (>= 1),
//
// which scales all latencies: when V̄ virtual channels share one physical
// link, each proceeds at 1/V̄ of the link bandwidth.
package vcmodel

import (
	"fmt"

	"kncube/internal/stats"
)

// Degree returns the average virtual-channel multiplexing degree V̄ for a
// physical channel with v virtual channels, total traffic rate lambda
// (messages/cycle) and mean service time s (cycles).
//
// Following Eq. 33, the unnormalised occupancies are
//
//	q_0 = 1,
//	q_v = q_{v-1}·(lambda·s)           for 0 < v < V,
//	q_V = q_{V-1}·(lambda·s)/(1-lambda·s),
//
// normalised into probabilities P_v (Eq. 34), giving V̄ by Eq. 35. When
// lambda·s >= 1 the channel is saturated and all V virtual channels are
// busy, so V̄ = V. An idle channel (lambda·s = 0) has V̄ = 1: a lone message
// never shares the link.
func Degree(v int, lambda, s float64) (float64, error) {
	if v < 1 {
		return 0, fmt.Errorf("vcmodel: %d virtual channels, want >= 1", v)
	}
	if lambda < 0 || s < 0 {
		return 0, fmt.Errorf("vcmodel: negative load (lambda=%v, s=%v)", lambda, s)
	}
	rho := lambda * s
	if stats.IsZero(rho) {
		return 1, nil
	}
	if rho >= 1 {
		return float64(v), nil
	}
	// Occupancy(v, rho) without the slice: chain forms the occupancies'
	// sum, the loop forms them again (the same products) and divides each
	// by it, so every term and both sums are Occupancy's bit for bit.
	top, sum := chain(v, rho)
	var num, den float64
	q := 1.0
	for i := 1; i <= v; i++ {
		if i < v {
			q *= rho
		} else {
			q = top
		}
		p := q / sum
		num += float64(i*i) * p
		den += float64(i) * p
	}
	if stats.IsZero(den) {
		return 1, nil
	}
	return num / den, nil
}

// Occupancy returns the stationary distribution P_0..P_V of the number of
// busy virtual channels for utilisation rho = lambda*s in [0, 1). Degree
// and AllBusy compute from it without building it; it stays the reference
// their tests compare against.
func Occupancy(v int, rho float64) []float64 {
	q := make([]float64, v+1)
	q[0] = 1
	for i := 1; i < v; i++ {
		q[i] = q[i-1] * rho
	}
	if v >= 1 {
		prev := q[0]
		if v > 1 {
			prev = q[v-1]
		}
		q[v] = prev * rho / (1 - rho)
	}
	var sum float64
	for _, x := range q {
		sum += x
	}
	for i := range q {
		q[i] /= sum
	}
	return q
}

// AllBusy returns P_V, the probability that all v virtual channels are
// busy at utilisation rho in [0, 1): Occupancy(v, rho)[v], computed with
// the same products in the same summation order (so bit-identical) but
// without materialising the distribution.
func AllBusy(v int, rho float64) float64 {
	if v < 1 {
		return 1
	}
	top, sum := chain(v, rho)
	return top / sum
}

// chain runs Dally's occupancy chain for v >= 1 virtual channels at
// utilisation rho, as Occupancy does before normalising: it returns the
// unnormalised top occupancy q_V and the sum q_0 + … + q_V, formed with
// Occupancy's products in its order.
func chain(v int, rho float64) (top, sum float64) {
	q := 1.0
	sum = 1
	for i := 1; i < v; i++ {
		q *= rho
		sum += q
	}
	top = q * rho / (1 - rho)
	return top, sum + top
}

// ScaleLatency multiplies a latency by the multiplexing degree, the way the
// paper applies V̄ to message latencies (Eqs. 10-14, 22, 24).
func ScaleLatency(latency, degree float64) float64 { return latency * degree }
