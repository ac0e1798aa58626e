package span

import (
	"encoding/binary"
	"time"
)

// TailPolicy decides, once a trace's root span has ended, whether the
// finished tree is exported. Head sampling is always-on (every request
// records spans); the tail decision is where cost is controlled, and it
// can see what head sampling cannot — the request's actual duration and
// outcome. Decision order:
//
//  1. any Keep reason raised on the trace (saturated solve, cache-miss
//     leader, 4xx/5xx, ...) — always kept;
//  2. root duration >= SlowThreshold — always kept;
//  3. deterministic ratio sampling on the trace id — kept with
//     probability KeepRatio.
type TailPolicy struct {
	// SlowThreshold keeps any trace whose root span lasted at least this
	// long. 0 means the 250ms default; negative disables the slow rule.
	SlowThreshold time.Duration
	// KeepRatio is the fraction of remaining traces kept, in [0, 1].
	// 0 means 1 (keep everything — the debug-friendly default for a ring
	// buffer that is bounded anyway); negative means 0 (keep none).
	KeepRatio float64
	// Seed perturbs the deterministic ratio hash so replays can be
	// steered; the decision for a given trace id is a pure function of
	// (Seed, trace id).
	Seed int64
}

// defaultSlowThreshold keeps any request at least this slow.
const defaultSlowThreshold = 250 * time.Millisecond

// normalized resolves the zero-value defaults into explicit settings.
func (p TailPolicy) normalized() TailPolicy {
	if p.SlowThreshold == 0 {
		p.SlowThreshold = defaultSlowThreshold
	}
	//lint:ignore floateq zero-value policy field means unset
	if p.KeepRatio == 0 {
		p.KeepRatio = 1
	} else if p.KeepRatio < 0 {
		p.KeepRatio = 0
	} else if p.KeepRatio > 1 {
		p.KeepRatio = 1
	}
	return p
}

// Decide reports whether a trace with the given id, root duration and keep
// reasons is exported, and the reason label stamped on the root span as
// the tail.keep attribute ("" when dropped). Exported for the sampler
// unit suite; Tracer.finish is the production caller.
func (p TailPolicy) Decide(id TraceID, root time.Duration, keep []string) (bool, string) {
	p = p.normalized()
	if len(keep) > 0 {
		return true, keep[0]
	}
	if p.SlowThreshold > 0 && root >= p.SlowThreshold {
		return true, "slow"
	}
	if p.KeepRatio >= 1 {
		return true, "ratio"
	}
	if p.KeepRatio <= 0 {
		return false, ""
	}
	if ratioHash(p.Seed, id) < p.KeepRatio {
		return true, "ratio"
	}
	return false, ""
}

// ratioHash maps (seed, trace id) to a uniform [0, 1) value via the
// splitmix64 finaliser over the first 8 bytes of the trace id, read big
// endian (the first 16 hex characters of its rendering). Purely
// deterministic — no RNG state — so followers of the same trace agree and
// tests can pick ids on either side of the threshold.
func ratioHash(seed int64, id TraceID) float64 {
	x := binary.BigEndian.Uint64(id[:8])
	const scale = 1.0 / (1 << 53)
	return float64(mix64(uint64(seed)^x)>>11) * scale
}
