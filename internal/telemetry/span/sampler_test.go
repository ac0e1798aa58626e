package span

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// traceID parses a hex trace id, failing the test on a malformed one.
func traceID(t *testing.T, hex string) TraceID {
	t.Helper()
	id, err := ParseTraceID(hex)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestTailKeepReasonsWin(t *testing.T) {
	p := TailPolicy{SlowThreshold: -1, KeepRatio: -1}
	id := traceID(t, "4bf92f3577b34da6a3ce929d0e0e4736")
	ok, reason := p.Decide(id, time.Hour, []string{"cache-miss", "saturated"})
	if !ok || reason != "cache-miss" {
		t.Fatalf("Decide = %v, %q; want kept with first reason", ok, reason)
	}
	if ok, _ := p.Decide(id, time.Hour, nil); ok {
		t.Fatal("fully-disabled policy kept an unmarked trace")
	}
}

func TestTailSlowRule(t *testing.T) {
	p := TailPolicy{SlowThreshold: 100 * time.Millisecond, KeepRatio: -1}
	id := traceID(t, "4bf92f3577b34da6a3ce929d0e0e4736")
	if ok, reason := p.Decide(id, 150*time.Millisecond, nil); !ok || reason != "slow" {
		t.Fatalf("slow trace: Decide = %v, %q", ok, reason)
	}
	if ok, _ := p.Decide(id, 50*time.Millisecond, nil); ok {
		t.Fatal("fast trace kept despite ratio 0")
	}

	// The zero value defaults to 250ms.
	def := TailPolicy{KeepRatio: -1}
	if ok, _ := def.Decide(id, defaultSlowThreshold, nil); !ok {
		t.Fatal("default threshold did not keep a 250ms trace")
	}
}

func TestTailRatioDefaultsToKeepAll(t *testing.T) {
	p := TailPolicy{SlowThreshold: -1}
	if ok, reason := p.Decide(traceID(t, "4bf92f3577b34da6a3ce929d0e0e4736"), 0, nil); !ok || reason != "ratio" {
		t.Fatalf("zero-value ratio must keep all: %v, %q", ok, reason)
	}
}

func TestTailRatioDeterministic(t *testing.T) {
	p := TailPolicy{SlowThreshold: -1, KeepRatio: 0.5, Seed: 9}
	// The decision is a pure function of (seed, trace id): same inputs,
	// same answer, every time.
	ids := []string{
		"4bf92f3577b34da6a3ce929d0e0e4736",
		"0af7651916cd43dd8448eb211c80319c",
		"00000000000000000000000000000001",
		"ffffffffffffffffffffffffffffffff",
	}
	first := make(map[string]bool, len(ids))
	for _, id := range ids {
		ok, _ := p.Decide(traceID(t, id), 0, nil)
		first[id] = ok
	}
	for trial := 0; trial < 3; trial++ {
		for _, id := range ids {
			if ok, _ := p.Decide(traceID(t, id), 0, nil); ok != first[id] {
				t.Fatalf("trace %s: decision flipped across calls", id)
			}
		}
	}
	// A different seed must be able to flip at least one decision across a
	// spread of ids (the hash actually depends on the seed).
	flipped := false
	other := TailPolicy{SlowThreshold: -1, KeepRatio: 0.5, Seed: 10}
	for _, id := range ids {
		if ok, _ := other.Decide(traceID(t, id), 0, nil); ok != first[id] {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("seed change did not alter any decision")
	}
}

func TestTailRatioApproximatesFraction(t *testing.T) {
	p := TailPolicy{SlowThreshold: -1, KeepRatio: 0.25, Seed: 3}
	tr := New(Config{Seed: 17})
	kept := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if ok, _ := p.Decide(tr.newTraceID(), 0, nil); ok {
			kept++
		}
	}
	frac := float64(kept) / n
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("kept fraction %.3f far from 0.25", frac)
	}
}

// TestRatioHashRange: the hash is in [0, 1), and it is the hash of the
// first 16 hex characters of the id's String form read as a 64-bit number,
// so keeping ids as arrays moved no decision.
func TestRatioHashRange(t *testing.T) {
	tr := New(Config{Seed: 5})
	for i := 0; i < 1000; i++ {
		id := tr.newTraceID()
		v := ratioHash(11, id)
		if v < 0 || v >= 1 {
			t.Fatalf("ratioHash out of [0,1): %v", v)
		}
		x, err := strconv.ParseUint(id.String()[:16], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		const scale = 1.0 / (1 << 53)
		if want := float64(mix64(uint64(11)^x)>>11) * scale; math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("ratioHash(%s) = %v, want %v from its hex prefix", id, v, want)
		}
	}
}
