package queueing

import (
	"errors"
	"math"
	"testing"

	"kncube/internal/stats"
)

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{2, 2, 0.4},
		{3, 2, 4.0 / 19.0},
	}
	for _, c := range cases {
		if got := ErlangB(c.c, c.a); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ErlangB(%d,%v) = %v, want %v", c.c, c.a, got, c.want)
		}
	}
}

func TestErlangBEdge(t *testing.T) {
	if !stats.IsZero(ErlangB(0, 1)) || !stats.IsZero(ErlangB(2, 0)) || !stats.IsZero(ErlangB(2, -1)) {
		t.Error("edge cases should return 0")
	}
}

func TestErlangBDecreasesWithServers(t *testing.T) {
	prev := 1.1
	for c := 1; c <= 10; c++ {
		b := ErlangB(c, 3)
		if b >= prev {
			t.Fatalf("ErlangB not decreasing at c=%d", c)
		}
		prev = b
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: C = rho.
	if got := ErlangC(1, 0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ErlangC(1,0.3) = %v, want 0.3", got)
	}
	// M/M/2 with a=1 (rho=0.5): C = B/(1-rho(1-B)) with B=0.2: 0.2/0.6=1/3.
	if got := ErlangC(2, 1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("ErlangC(2,1) = %v, want 1/3", got)
	}
}

func TestErlangCSaturates(t *testing.T) {
	if got := ErlangC(2, 2); !stats.ApproxEqual(got, 1, 0, 0) {
		t.Errorf("ErlangC at a=c = %v, want 1", got)
	}
	if got := ErlangC(2, 5); !stats.ApproxEqual(got, 1, 0, 0) {
		t.Errorf("ErlangC beyond capacity = %v, want 1", got)
	}
}

func TestErlangCBounds(t *testing.T) {
	for c := 1; c <= 8; c++ {
		for a := 0.1; a < float64(c); a += 0.1 {
			got := ErlangC(c, a)
			if got < 0 || got > 1 {
				t.Fatalf("ErlangC(%d,%v) = %v outside [0,1]", c, a, got)
			}
			if b := ErlangB(c, a); got < b {
				t.Fatalf("ErlangC(%d,%v)=%v below ErlangB=%v", c, a, got, b)
			}
		}
	}
}

// TestMGcWaitReducesToMG1: with one server MGcWait is the M/D/1 wait,
// MG1Wait with zero service variance.
func TestMGcWaitReducesToMG1(t *testing.T) {
	lambda, s := 0.01, 40.0
	w1, err1 := MG1Wait(lambda, s, 0)
	wc, errc := MGcWait(lambda, s, 1)
	if err1 != nil || errc != nil {
		t.Fatal(err1, errc)
	}
	if math.Abs(w1-wc) > 1e-9 {
		t.Errorf("MGcWait(c=1) %v != MG1Wait %v", wc, w1)
	}
}

func TestMGcWaitValidation(t *testing.T) {
	if _, err := MGcWait(-1, 1, 2); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := MGcWait(0.1, 1, 0); err == nil {
		t.Error("c=0 accepted")
	}
	if w, err := MGcWait(0, 5, 2); err != nil || !stats.IsZero(w) {
		t.Error("idle queue should wait 0")
	}
}

func TestMGcWaitUnstable(t *testing.T) {
	_, err := MGcWait(0.1, 30, 2) // a = 3 > 2
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
}

func TestMGcPoolBeatsSplitQueues(t *testing.T) {
	// Pooling c servers always beats c separate queues each fed lambda/c.
	lambda, s := 0.04, 40.0
	for _, c := range []int{2, 4} {
		pool, err := MGcWait(lambda, s, c)
		if err != nil {
			t.Fatal(err)
		}
		split, err := MG1Wait(lambda/float64(c), s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pool >= split {
			t.Errorf("c=%d: pool wait %v not below split wait %v", c, pool, split)
		}
	}
}

func TestMGcWaitMonotoneInLoad(t *testing.T) {
	prev := -1.0
	for lambda := 0.001; lambda*40 < 1.95; lambda += 0.001 {
		w, err := MGcWait(lambda, 40, 2)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if w < prev {
			t.Fatalf("wait decreased at lambda=%v", lambda)
		}
		prev = w
	}
}

func TestBlockingMulti(t *testing.T) {
	// internal/core's BlockingMultiServer form (multiServer): the M/G/c
	// wait at the aggregate rate and weighted service time.
	if b, err := multiServer(0, 0, 0, 0, 2); err != nil || !stats.IsZero(b) {
		t.Error("idle channel should block 0")
	}
	b, err := multiServer(0.001, 40, 0.004, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Errorf("blocking %v, want > 0", b)
	}
	// Symmetric in class order.
	b2, err := multiServer(0.004, 50, 0.001, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-b2) > 1e-12 {
		t.Errorf("not symmetric: %v vs %v", b, b2)
	}
}
