package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"kncube/internal/stats"
)

func TestMG1WaitZeroLoad(t *testing.T) {
	for _, lambda := range []float64{0, 1e-9} {
		w, err := MG1Wait(lambda, 10, 4)
		if err != nil {
			t.Fatalf("MG1Wait(%v): %v", lambda, err)
		}
		if stats.IsZero(lambda) && !stats.IsZero(w) {
			t.Errorf("zero arrivals should wait 0, got %v", w)
		}
		if w < 0 {
			t.Errorf("negative wait %v", w)
		}
	}
}

func TestMG1WaitZeroService(t *testing.T) {
	w, err := MG1Wait(0.5, 0, 0)
	if err != nil || !stats.IsZero(w) {
		t.Errorf("zero service: w=%v err=%v", w, err)
	}
}

func TestMG1WaitNegativeArgs(t *testing.T) {
	for _, args := range [][3]float64{{-1, 1, 0}, {1, -1, 0}, {0.1, 1, -2}} {
		if _, err := MG1Wait(args[0], args[1], args[2]); err == nil {
			t.Errorf("MG1Wait(%v) accepted negative argument", args)
		}
	}
}

func TestMG1WaitUnstable(t *testing.T) {
	for _, args := range [][2]float64{{0.2, 5}, {0.5, 2}, {1, 1.5}} {
		_, err := MG1Wait(args[0], args[1], 0)
		if !errors.Is(err, ErrUnstable) {
			t.Errorf("MG1Wait(%v): err=%v, want ErrUnstable", args, err)
		}
	}
}

func TestMM1ClosedForm(t *testing.T) {
	// M/M/1 (variance s²): W = rho*s/(1-rho).
	for _, c := range []struct{ lambda, s float64 }{
		{0.1, 2}, {0.05, 10}, {0.009, 100},
	} {
		rho := c.lambda * c.s
		want := rho * c.s / (1 - rho)
		got, err := MG1Wait(c.lambda, c.s, c.s*c.s)
		if err != nil {
			t.Fatalf("MG1Wait(%v,%v,s²): %v", c.lambda, c.s, err)
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("MG1Wait(%v,%v,s²) = %v, want %v", c.lambda, c.s, got, want)
		}
	}
}

func TestMD1HalfOfMM1(t *testing.T) {
	// M/D/1 (variance 0) waiting is exactly half the M/M/1 (variance s²)
	// waiting.
	lambda, s := 0.04, 20.0
	wd, err1 := MG1Wait(lambda, s, 0)
	wm, err2 := MG1Wait(lambda, s, s*s)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(wd-wm/2) > 1e-12 {
		t.Errorf("M/D/1 %v vs M/M/1 %v: want ratio 0.5", wd, wm)
	}
}

func TestPaperWaitReducesToMD1WhenServiceEqualsLm(t *testing.T) {
	// When s == Lm the approximated variance is 0, so PaperWait is the
	// M/D/1 wait.
	lambda, s := 0.02, 32.0
	wp, err1 := PaperWait(lambda, s, 32)
	wd, err2 := MG1Wait(lambda, s, 0)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !stats.ApproxEqual(wp, wd, 0, 0) {
		t.Errorf("PaperWait %v != MD1 %v", wp, wd)
	}
}

func TestPaperWaitZeroService(t *testing.T) {
	if w, err := PaperWait(0.1, 0, 32); err != nil || !stats.IsZero(w) {
		t.Errorf("PaperWait zero service: %v %v", w, err)
	}
}

func TestWaitMonotoneInLambda(t *testing.T) {
	s, lm := 40.0, 32.0
	prev := -1.0
	for lambda := 0.0005; lambda*s < 0.98; lambda += 0.0005 {
		w, err := PaperWait(lambda, s, lm)
		if err != nil {
			t.Fatalf("lambda=%v: %v", lambda, err)
		}
		if w < prev {
			t.Fatalf("wait decreased at lambda=%v: %v < %v", lambda, w, prev)
		}
		prev = w
	}
}

func TestWaitMonotoneInService(t *testing.T) {
	lambda, lm := 0.002, 32.0
	prev := -1.0
	for s := 33.0; lambda*s < 0.95; s += 5 {
		w, err := PaperWait(lambda, s, lm)
		if err != nil {
			t.Fatalf("s=%v: %v", s, err)
		}
		if w < prev {
			t.Fatalf("wait decreased at s=%v: %v < %v", s, w, prev)
		}
		prev = w
	}
}

func TestWaitDivergesNearSaturation(t *testing.T) {
	s, lm := 50.0, 32.0
	w1, err := PaperWait(0.9/s, s, lm)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := PaperWait(0.999/s, s, lm)
	if err != nil {
		t.Fatal(err)
	}
	if w2 < 50*w1 {
		t.Errorf("wait near saturation %v not >> wait at rho=0.9 %v", w2, w1)
	}
}

func TestWeightedService(t *testing.T) {
	cases := []struct {
		lr, sr, lh, sh, want float64
	}{
		{0, 0, 0, 0, 0},
		{1, 10, 0, 99, 10},
		{0, 99, 2, 7, 7},
		{1, 10, 1, 20, 15},
		{3, 10, 1, 30, 15},
	}
	for _, c := range cases {
		if got := WeightedService(c.lr, c.sr, c.lh, c.sh); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WeightedService(%v,%v,%v,%v) = %v, want %v",
				c.lr, c.sr, c.lh, c.sh, got, c.want)
		}
	}
}

func TestWeightedServiceBounds(t *testing.T) {
	f := func(lr, sr, lh, sh float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Abs(math.Mod(x, 1e6))
		}
		lr, sr = clamp(lr), clamp(sr)
		lh, sh = clamp(lh), clamp(sh)
		got := WeightedService(lr, sr, lh, sh)
		lo, hi := math.Min(sr, sh), math.Max(sr, sh)
		if stats.IsZero(lr + lh) {
			return stats.IsZero(got)
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// multiServer is the blocking delay of a channel class as internal/core's
// BlockingMultiServer form composes it from this package's primitives: the
// M/G/c wait at the aggregate rate and the rate-weighted service time
// (Eq. 30), with deterministic service, over c virtual channels.
func multiServer(lr, sr, lh, sh float64, c int) (float64, error) {
	return MGcWait(lr+lh, WeightedService(lr, sr, lh, sh), c)
}

func TestBlockingZeroTraffic(t *testing.T) {
	b, err := multiServer(0, 50, 0, 60, 2)
	if err != nil || !stats.IsZero(b) {
		t.Errorf("idle channel blocking: %v %v", b, err)
	}
}

func TestBlockingSingleClassMatchesComposition(t *testing.T) {
	// With only one class, the weighted service is that class's service,
	// whichever class carries the traffic.
	l, s := 0.004, 45.0
	want, err := MGcWait(l, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][4]float64{{l, s, 0, 0}, {0, 0, l, s}} {
		b, err := multiServer(c[0], c[1], c[2], c[3], 2)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b-want) > 1e-12 {
			t.Errorf("blocking = %v, want %v", b, want)
		}
	}
}

func TestBlockingSymmetricInClasses(t *testing.T) {
	b1, err1 := multiServer(0.001, 40, 0.003, 55, 2)
	b2, err2 := multiServer(0.003, 55, 0.001, 40, 2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(b1-b2) > 1e-12 {
		t.Errorf("blocking not symmetric: %v vs %v", b1, b2)
	}
}

func TestBlockingUnstable(t *testing.T) {
	// 0.02·40 + 0.01·30 = 1.1 erlangs on one virtual channel.
	_, err := multiServer(0.02, 40, 0.01, 30, 1)
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
}

func TestBlockingMonotoneInHotRate(t *testing.T) {
	prev := -1.0
	for lh := 0.0; lh*60+0.001*40 < 1.9; lh += 0.001 {
		b, err := multiServer(0.001, 40, lh, 60, 2)
		if err != nil {
			t.Fatalf("lh=%v: %v", lh, err)
		}
		if b < prev {
			t.Fatalf("blocking decreased at lh=%v", lh)
		}
		prev = b
	}
}
