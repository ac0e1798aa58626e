package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"kncube/internal/core"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry"
)

func testCache(capacity int) *solveCache {
	return newSolveCache(capacity, telemetry.NewRegistry())
}

// testKey is the i-th of a family of distinct cache keys.
func testKey(i int) solveKey {
	return solveKey{model: "test", k: i}
}

// TestCacheCollapsesConcurrentIdenticalSolves is the singleflight
// contract: many concurrent requests for one key run the solver exactly
// once. Run under -race this also proves the publication of the shared
// entry is properly synchronised.
func TestCacheCollapsesConcurrentIdenticalSolves(t *testing.T) {
	c := testCache(16)
	const waiters = 32
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*SolveResult, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.do(context.Background(), testKey(0), func(context.Context) (*SolveResult, error) {
				calls.Add(1)
				<-gate // hold every other caller in the flight
				return &SolveResult{Latency: 42}, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			results[i] = res
		}(i)
	}
	// Open the gate once the leader is inside fn; the other goroutines
	// either join the flight or hit the cache afterwards — both fine, both
	// must see the leader's result without a second solver run.
	for calls.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("solver ran %d times for %d concurrent identical requests, want 1", n, waiters)
	}
	for i, r := range results {
		if r == nil || math.Float64bits(r.Latency) != math.Float64bits(42.0) {
			t.Fatalf("caller %d got %+v, want the shared result", i, r)
		}
	}
}

// TestCacheRepeatIsHit pins the basic hit path and its metrics.
func TestCacheRepeatIsHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newSolveCache(8, reg)
	fn := func(context.Context) (*SolveResult, error) {
		return &SolveResult{Latency: 1}, nil
	}
	if _, how, _ := c.do(context.Background(), testKey(0), fn); how != cacheMiss {
		t.Fatalf("first call: %s, want miss", how)
	}
	if _, how, _ := c.do(context.Background(), testKey(0), fn); how != cacheHit {
		t.Fatalf("second call: %s, want hit", how)
	}
	hits := reg.Counter("khs_serve_cache_hits_total", "", nil).Value()
	misses := reg.Counter("khs_serve_cache_misses_total", "", nil).Value()
	if hits != 1 || misses != 1 {
		t.Errorf("hits = %d, misses = %d, want 1 and 1", hits, misses)
	}
}

// TestSolveKeyDistinctSpecsNeverCollide enumerates single-field
// perturbations of a base (model, spec, options) and requires all keys
// pairwise distinct — including float changes below any printing
// precision, which a %v-formatted key would collapse. Dims 0 is not a
// perturbation of Dims 2 on hotspot-2d but the same canonical spec, so the
// two must key one entry (TestSolveCacheKeysCanonicalSpec checks it
// through the server).
func TestSolveKeyDistinctSpecsNeverCollide(t *testing.T) {
	base := core.Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}
	type variant struct {
		name  string
		model string
		spec  core.Spec
		opts  core.Options
	}
	variants := []variant{{name: "base", model: "hotspot-2d", spec: base}}
	add := func(name string, mutate func(*variant)) {
		v := variant{name: name, model: "hotspot-2d", spec: base}
		mutate(&v)
		variants = append(variants, v)
	}
	add("model", func(v *variant) { v.model = "bidirectional-2d" })
	add("k", func(v *variant) { v.spec.K = 17 })
	add("dims", func(v *variant) { v.spec.Dims = 3 })
	add("v", func(v *variant) { v.spec.V = 3 })
	add("lm", func(v *variant) { v.spec.Lm = 33 })
	add("h", func(v *variant) { v.spec.H = 0.4 })
	add("h-ulp", func(v *variant) { v.spec.H = math.Nextafter(0.2, 1) })
	add("lambda", func(v *variant) { v.spec.Lambda = 2e-4 })
	add("lambda-ulp", func(v *variant) { v.spec.Lambda = math.Nextafter(1e-4, 1) })
	add("blocking", func(v *variant) { v.opts.Blocking = core.BlockingMultiServer })
	add("acceleration", func(v *variant) { v.opts.FixPoint.Acceleration = fixpoint.AccelNone })

	seen := map[solveKey]string{}
	for _, v := range variants {
		key := keyOf(v.model, v.spec, v.opts)
		if prev, dup := seen[key]; dup {
			t.Errorf("variants %q and %q collide on key %+v", prev, v.name, key)
		}
		seen[key] = v.name
	}

	alias := base
	alias.Dims = 0
	if a, b := keyOf("hotspot-2d", alias, core.Options{}), keyOf("hotspot-2d", base, core.Options{}); a != b {
		t.Errorf("Dims 0 keys %+v, Dims 2 keys %+v; want one entry", a, b)
	}
}

// TestCacheConcurrentDistinctSpecs hammers the cache with distinct keys
// under -race: every key must be solved exactly once and never cross-talk.
func TestCacheConcurrentDistinctSpecs(t *testing.T) {
	c := testCache(1024)
	const keys, callers = 16, 4
	var calls [keys]atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				want := float64(k)
				res, _, err := c.do(context.Background(), testKey(k),
					func(context.Context) (*SolveResult, error) {
						calls[k].Add(1)
						return &SolveResult{Latency: want}, nil
					})
				if err != nil {
					t.Errorf("key %d: %v", k, err)
					return
				}
				if math.Float64bits(res.Latency) != math.Float64bits(want) {
					t.Errorf("key %d served latency %v — cross-key collision", k, res.Latency)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d solved %d times, want 1", k, n)
		}
	}
}

// TestCacheEvictionRespectsBound fills past capacity and checks the
// resident count, the eviction counter, and that the evicted (oldest) key
// re-solves while recent keys still hit.
func TestCacheEvictionRespectsBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newSolveCache(4, reg)
	solve := func(k int) string {
		_, how, _ := c.do(context.Background(), testKey(k), func(context.Context) (*SolveResult, error) {
			return &SolveResult{}, nil
		})
		return how
	}
	for i := 0; i < 10; i++ {
		solve(i)
	}
	if n := c.len(); n != 4 {
		t.Errorf("resident entries = %d, want capacity 4", n)
	}
	if ev := reg.Counter("khs_serve_cache_evictions_total", "", nil).Value(); ev != 6 {
		t.Errorf("evictions = %d, want 6", ev)
	}
	if how := solve(0); how != cacheMiss {
		t.Errorf("evicted key-0: %s, want miss (re-solve)", how)
	}
	if how := solve(9); how != cacheHit {
		t.Errorf("recent key-9: %s, want hit", how)
	}
	if g := reg.Gauge("khs_serve_cache_entries", "", nil).Value(); int(g) != c.len() {
		t.Errorf("entries gauge %v != resident %d", g, c.len())
	}
}

// TestCacheCachesSaturationOutcome: ErrSaturated is a deterministic
// property of the spec, so repeated saturated requests must not re-run the
// solver.
func TestCacheCachesSaturationOutcome(t *testing.T) {
	c := testCache(8)
	var calls atomic.Int64
	fn := func(context.Context) (*SolveResult, error) {
		calls.Add(1)
		return nil, fmt.Errorf("%w (test)", core.ErrSaturated)
	}
	_, _, err1 := c.do(context.Background(), testKey(0), fn)
	_, how, err2 := c.do(context.Background(), testKey(0), fn)
	if !errors.Is(err1, core.ErrSaturated) || !errors.Is(err2, core.ErrSaturated) {
		t.Fatalf("errors: %v, %v — want ErrSaturated from both", err1, err2)
	}
	if how != cacheHit {
		t.Errorf("repeat saturated request: %s, want hit", how)
	}
	if calls.Load() != 1 {
		t.Errorf("solver ran %d times, want 1", calls.Load())
	}
}

// TestCacheDoesNotCacheCancellation: a cancelled solve must not poison the
// key for later callers.
func TestCacheDoesNotCacheCancellation(t *testing.T) {
	c := testCache(8)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.do(cancelled, testKey(0), func(ctx context.Context) (*SolveResult, error) {
		return nil, fmt.Errorf("solve: %w", ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	res, how, err := c.do(context.Background(), testKey(0), func(context.Context) (*SolveResult, error) {
		return &SolveResult{Latency: 7}, nil
	})
	if err != nil || how != cacheMiss || res == nil {
		t.Errorf("after cancellation: res=%v how=%s err=%v, want a fresh miss solve", res, how, err)
	}
}

// TestCacheFollowerRetriesWhenLeaderCancelled: a follower attached to a
// flight whose leader was cancelled re-solves under its own live context
// instead of inheriting the leader's cancellation.
func TestCacheFollowerRetriesWhenLeaderCancelled(t *testing.T) {
	c := testCache(8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	var solves atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(leaderCtx, testKey(0), func(ctx context.Context) (*SolveResult, error) {
			solves.Add(1)
			close(leaderIn)
			<-ctx.Done() // simulate the fixed-point loop noticing cancellation
			return nil, fmt.Errorf("solve: %w", ctx.Err())
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want Canceled", err)
		}
	}()

	<-leaderIn
	wg.Add(1)
	var followerRes *SolveResult
	var followerErr error
	followerJoined := make(chan struct{})
	go func() {
		defer wg.Done()
		close(followerJoined)
		followerRes, _, followerErr = c.do(context.Background(), testKey(0),
			func(ctx context.Context) (*SolveResult, error) {
				solves.Add(1)
				return &SolveResult{Latency: 9}, nil
			})
	}()
	<-followerJoined
	cancelLeader()
	wg.Wait()

	if followerErr != nil {
		t.Fatalf("follower inherited the leader's fate: %v", followerErr)
	}
	if followerRes == nil || math.Float64bits(followerRes.Latency) != math.Float64bits(9.0) {
		t.Errorf("follower result %+v, want its own solve", followerRes)
	}
	if n := solves.Load(); n != 2 {
		t.Errorf("solver ran %d times, want 2 (cancelled leader + retrying follower)", n)
	}
}
