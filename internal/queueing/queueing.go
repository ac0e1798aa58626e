// Package queueing provides the queueing-theoretic building blocks of the
// analytical model: the M/G/1 waiting-time formula with the service-time
// variance approximation used throughout the wormhole-modelling literature
// (Draper-Ghosh 1994), the M/G/c pool waiting time, and the weighted
// service time that Eqs. 26-30 of Loucif, Ould-Khaoua, Min (IPDPS 2005)
// compose into a channel blocking delay (the composition itself lives in
// internal/core).
//
// All times are in network cycles and all rates in messages/cycle.
package queueing

import (
	"errors"
	"fmt"

	"kncube/internal/stats"
)

// ErrUnstable reports a queue whose utilisation is at or above 1, i.e. the
// offered load exceeds the service capacity and the waiting time diverges.
// The analytical model maps this condition to network saturation.
var ErrUnstable = errors.New("queueing: utilisation >= 1 (saturated)")

// MG1Wait returns the mean waiting time of an M/G/1 queue with arrival rate
// lambda, mean service time s and service-time variance variance
// (Pollaczek-Khinchine):
//
//	W = lambda * E[S^2] / (2 (1 - lambda s)),  E[S^2] = s^2 + Var[S].
//
// It returns ErrUnstable when lambda*s >= 1.
func MG1Wait(lambda, s, variance float64) (float64, error) {
	if lambda < 0 || s < 0 || variance < 0 {
		return 0, fmt.Errorf("queueing: negative argument MG1Wait(%v,%v,%v)", lambda, s, variance)
	}
	if stats.IsZero(lambda) || stats.IsZero(s) {
		return 0, nil
	}
	rho := lambda * s
	if rho >= 1 {
		return 0, ErrUnstable
	}
	return lambda * (s*s + variance) / (2 * (1 - rho)), nil
}

// PaperWait returns the waiting-time approximation of Eq. 28 of the paper:
// an M/G/1 queue whose service-time variance is approximated by
// (s - Lm)^2, where Lm is the message length in flits. The term (s - Lm)
// is the variable part of the service time (path delay and blocking), and
// treating it as the standard deviation is the approximation the paper
// inherits from Draper-Ghosh:
//
//	W = lambda s^2 (1 + (s-Lm)^2/s^2) / (2 (1 - lambda s)).
//
// Only the uniform baseline's source queue uses it; every other queue of
// the models takes service as deterministic.
func PaperWait(lambda, s, lm float64) (float64, error) {
	if stats.IsZero(s) {
		return 0, nil
	}
	dev := s - lm
	return MG1Wait(lambda, s, dev*dev)
}

// WeightedService returns the rate-weighted mean service time of two
// traffic classes (Eq. 30): (lr*sr + lh*sh) / (lr + lh). It returns 0 when
// both rates are zero.
func WeightedService(lr, sr, lh, sh float64) float64 {
	total := lr + lh
	if stats.IsZero(total) {
		return 0
	}
	return (lr*sr + lh*sh) / total
}

// ErlangB returns the Erlang-B blocking probability for offered load a
// (erlangs) on c servers, computed with the stable recurrence.
func ErlangB(c int, a float64) float64 {
	if c < 1 || a <= 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability that an arrival must wait in an M/M/c
// queue with offered load a = lambda*s erlangs; requires a < c for a finite
// queue (returns 1 when a >= c).
func ErlangC(c int, a float64) float64 {
	if c < 1 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	b := ErlangB(c, a)
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// MGcWait returns the standard approximation of the mean waiting time in an
// M/D/c queue (Lee-Longton with deterministic service): the M/M/c waiting
// time scaled by (1+SCV)/2 with a service-time SCV of 0,
//
//	W ≈ ErlangC(c, a) · s/(c(1-rho)) · (1+0)/2,  a = lambda·s.
//
// This models a header waiting for any free virtual channel of a class of c
// channels; a message holds a channel for a fixed service time. Returns
// ErrUnstable when a >= c.
func MGcWait(lambda, s float64, c int) (float64, error) {
	if lambda < 0 || s < 0 {
		return 0, fmt.Errorf("queueing: negative argument MGcWait(%v,%v)", lambda, s)
	}
	if c < 1 {
		return 0, fmt.Errorf("queueing: MGcWait with %d servers", c)
	}
	if stats.IsZero(lambda) || stats.IsZero(s) {
		return 0, nil
	}
	a := lambda * s
	if a >= float64(c) {
		return 0, ErrUnstable
	}
	rho := a / float64(c)
	return ErlangC(c, a) * s / (float64(c) * (1 - rho)) / 2, nil
}
