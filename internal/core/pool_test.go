package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"kncube/internal/fixpoint"
)

// TestPreparedSetSoak shares one PreparedSet among concurrent batches of
// specs over a few shapes, a third of them cancelled while they run, as a
// server's requests share its pool (run it under -race). Every answer a
// checked-out solver gives is bit for bit core.Solve's, whoever prepared
// or last used it; an idle solver never holds a request's context or
// trace hook; and the idle bytes never pass the bound, which the two
// large shapes (about 18 MB each once their workspace has grown)
// overflow, so eviction runs concurrently with checkouts.
func TestPreparedSetSoak(t *testing.T) {
	type item struct {
		name string
		spec Spec
	}
	var items []item
	for _, name := range Solvers() {
		for _, lam := range sweepLambdas(name) {
			spec := goldenSpec(name)
			spec.Lambda = lam
			items = append(items, item{name, spec})
		}
	}
	small := len(items)
	for k := 450; k < 454; k++ {
		// Refused in the first round, after the workspace has grown.
		items = append(items, item{"hotspot-2d", Spec{K: k, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 0.01}})
	}
	want := make([]*SolveResult, len(items))
	wantErr := make([]error, len(items))
	for i, it := range items {
		want[i], wantErr[i] = Solve(it.name, it.spec, Options{})
	}

	set := NewPreparedSet()
	checkIdle := func() error {
		set.mu.Lock()
		defer set.mu.Unlock()
		if set.bytes > maxIdleBytes {
			return fmt.Errorf("%d idle bytes, over the %d-byte bound", set.bytes, maxIdleBytes)
		}
		for _, ps := range set.idle {
			if ps.o.FixPoint.Ctx != nil || ps.o.FixPoint.Trace != nil {
				return fmt.Errorf("idle %s K=%d solver keeps a request's hooks", ps.name, ps.key.k)
			}
		}
		return nil
	}

	const workers, batches = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*batches*len(items))
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				ctx, cancel := context.WithCancel(context.Background())
				cancelled := (w+b)%3 == 0
				if cancelled {
					go func() {
						time.Sleep(time.Duration(b) * 100 * time.Microsecond)
						cancel()
					}()
				}
				rounds := 0
				var o Options
				o.FixPoint.Ctx = ctx
				o.FixPoint.Trace = func(fixpoint.TraceRecord) { rounds++ }
				// Each worker walks the items from its own offset, so the
				// batches meet the shapes in different orders; the large
				// shapes come once per batch.
				for j := range small + 1 {
					i := (w*7 + b*3 + j) % small
					if j == small {
						i = small + (w+b)%(len(items)-small)
					}
					it := items[i]
					ps := set.Get(it.name, it.spec, o)
					if ps == nil {
						var err error
						if ps, err = Prepare(it.name, it.spec, o); err != nil {
							errs <- err
							continue
						}
					}
					got, err := ps.Solve(it.spec.Lambda)
					set.Put(ps)
					switch {
					case cancelled && errors.Is(err, context.Canceled):
					case (err == nil) != (wantErr[i] == nil) || (err != nil && err.Error() != wantErr[i].Error()):
						errs <- fmt.Errorf("%s %+v: err %v, core.Solve %v", it.name, it.spec, err, wantErr[i])
					case err == nil && (math.Float64bits(got.Latency) != math.Float64bits(want[i].Latency) ||
						got.Convergence != want[i].Convergence):
						errs <- fmt.Errorf("%s %+v: latency %.17g after %+v, core.Solve %.17g after %+v",
							it.name, it.spec, got.Latency, got.Convergence, want[i].Latency, want[i].Convergence)
					}
					if err := checkIdle(); err != nil {
						errs <- err
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if n++; n <= 10 {
			t.Error(err)
		}
	}
	if err := checkIdle(); err != nil {
		t.Error(err)
	}
}
