package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"kncube/internal/core"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry"
)

// solveKey is the cache key of one solve: the model name, the canonical
// core.Spec (core.Canonical: a zero K or Dims spelled out as the variant's
// default, so aliases of one spec share an entry), and every option that
// changes the result. Floats are keyed by their IEEE-754 bit patterns, so
// two requests share an entry iff their solves are bit-for-bit identical —
// no epsilon, no float equality.
type solveKey struct {
	model          string
	k, dims, v, lm int
	h, lambda      uint64 // math.Float64bits
	blocking       core.BlockingForm
	accel          fixpoint.Acceleration
}

// keyOf derives the cache key of one solve.
func keyOf(model string, spec core.Spec, o core.Options) solveKey {
	spec = core.Canonical(model, spec)
	return solveKey{model: model, k: spec.K, dims: spec.Dims, v: spec.V, lm: spec.Lm,
		h: math.Float64bits(spec.H), lambda: math.Float64bits(spec.Lambda),
		blocking: o.Blocking, accel: o.FixPoint.Acceleration}
}

// cacheEntry is a completed solve outcome: the wire result every route
// answers with, converted once by the miss leader (the solver's
// per-channel breakdown is not retained). err is nil or wraps
// core.ErrSaturated — both are deterministic properties of the key, so both
// are cacheable; validation and cancellation errors never enter the cache.
type cacheEntry struct {
	res *SolveResult
	err error
}

// flight is one in-progress solve that concurrent identical requests
// attach to (singleflight). ent is written exactly once before done is
// closed; the channel close publishes it.
type flight struct {
	done chan struct{}
	ent  cacheEntry
}

// lruItem is one resident cache entry.
type lruItem struct {
	key solveKey
	ent cacheEntry
}

// Cache outcome labels returned by solveCache.do.
const (
	cacheHit       = "hit"
	cacheMiss      = "miss"
	cacheCoalesced = "coalesced"
)

// solveCache is the keyed, size-bounded LRU solve cache with singleflight
// deduplication: concurrent requests for the same key collapse onto one
// solver run, and completed outcomes are retained up to capacity entries
// with least-recently-used eviction.
type solveCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	byKey    map[solveKey]*list.Element
	inflight map[solveKey]*flight

	hits, misses, coalesced, evictions *telemetry.Counter
	entries                            *telemetry.Gauge
}

// newSolveCache builds a cache bounded to capacity entries (capacity <= 0
// disables retention but keeps singleflight deduplication). Metrics are
// registered under khs_serve_cache_*.
func newSolveCache(capacity int, reg *telemetry.Registry) *solveCache {
	c := &solveCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[solveKey]*list.Element),
		inflight: make(map[solveKey]*flight),
	}
	c.hits = reg.Counter("khs_serve_cache_hits_total", "solve cache hits", nil)
	c.misses = reg.Counter("khs_serve_cache_misses_total", "solve cache misses (solver runs)", nil)
	c.coalesced = reg.Counter("khs_serve_cache_coalesced_total", "requests attached to an in-flight identical solve", nil)
	c.evictions = reg.Counter("khs_serve_cache_evictions_total", "entries evicted by the LRU size bound", nil)
	c.entries = reg.Gauge("khs_serve_cache_entries", "resident solve cache entries", nil)
	return c
}

// do returns the outcome for key, computing it with fn at most once across
// all concurrent callers. The string reports how the call was satisfied
// (cacheHit, cacheMiss, cacheCoalesced).
//
// fn runs under the leader's context; a follower whose leader was cancelled
// retries as a new leader if its own context is still live, so one client
// hanging up never poisons another client's identical request.
func (c *solveCache) do(ctx context.Context, key solveKey, fn func(context.Context) (*SolveResult, error)) (*SolveResult, string, error) {
	for {
		c.mu.Lock()
		if el, ok := c.byKey[key]; ok {
			c.ll.MoveToFront(el)
			ent := el.Value.(*lruItem).ent
			c.mu.Unlock()
			c.hits.Inc()
			return ent.res, cacheHit, ent.err
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
				if isCancellation(fl.ent.err) && ctx.Err() == nil {
					continue // the leader was cancelled, not us: retry as leader
				}
				c.coalesced.Inc()
				return fl.ent.res, cacheCoalesced, fl.ent.err
			case <-ctx.Done():
				return nil, cacheCoalesced, fmt.Errorf("serve: solve wait: %w", ctx.Err())
			}
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		res, err := fn(ctx)
		fl.ent = cacheEntry{res: res, err: err}
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil || errors.Is(err, core.ErrSaturated) {
			c.add(key, fl.ent)
		}
		c.mu.Unlock()
		close(fl.done)
		c.misses.Inc()
		return res, cacheMiss, err
	}
}

// add inserts under c.mu, evicting from the LRU tail beyond capacity.
func (c *solveCache) add(key solveKey, ent cacheEntry) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&lruItem{key: key, ent: ent})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		it := back.Value.(*lruItem)
		c.ll.Remove(back)
		delete(c.byKey, it.key)
		c.evictions.Inc()
	}
	c.entries.Set(float64(c.ll.Len()))
}

// len reports the resident entry count (tests).
func (c *solveCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// isCancellation reports whether err came from context cancellation or
// deadline expiry, at any wrapping depth.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
