package vcmodel

import (
	"math"
	"testing"
	"testing/quick"

	"kncube/internal/stats"
)

func TestDegreeValidation(t *testing.T) {
	if _, err := Degree(0, 0.1, 10); err == nil {
		t.Error("v=0 accepted")
	}
	if _, err := Degree(2, -0.1, 10); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := Degree(2, 0.1, -10); err == nil {
		t.Error("negative s accepted")
	}
}

func TestDegreeIdleChannel(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8} {
		got, err := Degree(v, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ApproxEqual(got, 1, 0, 0) {
			t.Errorf("V=%d idle: degree %v, want 1", v, got)
		}
	}
}

func TestDegreeSaturatedChannel(t *testing.T) {
	for _, v := range []int{1, 2, 4} {
		got, err := Degree(v, 0.05, 20) // rho = 1
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ApproxEqual(got, float64(v), 0, 0) {
			t.Errorf("V=%d saturated: degree %v, want %d", v, got, v)
		}
	}
}

func TestDegreeBounds(t *testing.T) {
	f := func(load uint8, vRaw uint8) bool {
		v := int(vRaw%8) + 1
		rho := float64(load) / 256.0 // in [0,1)
		d, err := Degree(v, rho, 1)
		if err != nil {
			return false
		}
		return d >= 1-1e-12 && d <= float64(v)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegreeMonotoneInLoad(t *testing.T) {
	for _, v := range []int{2, 4, 8} {
		prev := 0.0
		for rho := 0.0; rho < 1.0; rho += 0.01 {
			d, err := Degree(v, rho, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d+1e-12 < prev {
				t.Fatalf("V=%d: degree decreased at rho=%v (%v < %v)", v, rho, d, prev)
			}
			prev = d
		}
	}
}

func TestDegreeSingleVC(t *testing.T) {
	// With one virtual channel the degree is always exactly 1.
	for _, rho := range []float64{0, 0.2, 0.5, 0.9, 0.99} {
		d, err := Degree(1, rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d-1) > 1e-12 {
			t.Errorf("V=1 rho=%v: degree %v, want 1", rho, d)
		}
	}
}

func TestDegreeLowLoadNearOne(t *testing.T) {
	d, err := Degree(4, 1e-6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1.001 {
		t.Errorf("low load degree %v, want ~1", d)
	}
}

func TestOccupancyIsDistribution(t *testing.T) {
	for _, v := range []int{1, 2, 3, 8} {
		for _, rho := range []float64{0.01, 0.3, 0.7, 0.99} {
			p := Occupancy(v, rho)
			if len(p) != v+1 {
				t.Fatalf("V=%d: %d entries", v, len(p))
			}
			sum := 0.0
			for i, x := range p {
				if x < 0 {
					t.Fatalf("V=%d rho=%v: P_%d = %v < 0", v, rho, i, x)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("V=%d rho=%v: probabilities sum to %v", v, rho, sum)
			}
		}
	}
}

func TestOccupancyGeometricBody(t *testing.T) {
	// For 0 < i < V, P_i/P_{i-1} must equal rho.
	p := Occupancy(5, 0.4)
	for i := 1; i < 5; i++ {
		if math.Abs(p[i]/p[i-1]-0.4) > 1e-12 {
			t.Errorf("P_%d/P_%d = %v, want 0.4", i, i-1, p[i]/p[i-1])
		}
	}
	// The last state is inflated by 1/(1-rho).
	if math.Abs(p[5]/p[4]-0.4/0.6) > 1e-12 {
		t.Errorf("P_V/P_{V-1} = %v, want %v", p[5]/p[4], 0.4/0.6)
	}
}

func TestOccupancyHighLoadConcentratesAtV(t *testing.T) {
	p := Occupancy(2, 0.999)
	if p[2] < 0.99 {
		t.Errorf("rho=0.999: P_V = %v, want ~1", p[2])
	}
}

func TestDegreeTwoVCKnownValue(t *testing.T) {
	// Hand computation for V=2, rho=0.5:
	// q = [1, 0.5, 0.5], P = [0.5, 0.25, 0.25],
	// V̄ = (1*0.25 + 4*0.25)/(1*0.25 + 2*0.25) = 1.25/0.75 = 5/3.
	d, err := Degree(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-5.0/3.0) > 1e-12 {
		t.Errorf("degree = %v, want 5/3", d)
	}
}

func TestScaleLatency(t *testing.T) {
	if got := ScaleLatency(100, 1.5); !stats.ApproxEqual(got, 150, 0, 0) {
		t.Errorf("ScaleLatency = %v", got)
	}
}

// TestAllBusyMatchesOccupancy pins AllBusy to the last entry of the
// materialised distribution bit for bit, across V and the whole [0, 1)
// utilisation range the blocking composition feeds it.
func TestAllBusyMatchesOccupancy(t *testing.T) {
	for v := 1; v <= 40; v++ {
		for _, rho := range []float64{0, 1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-12} {
			want := Occupancy(v, rho)[v]
			if got := AllBusy(v, rho); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("AllBusy(%d, %v) = %.17g, Occupancy gives %.17g", v, rho, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { AllBusy(16, 0.4) }); n > 0 {
		t.Errorf("AllBusy allocates %v times per call, want 0", n)
	}
}

// TestDegreeMatchesOccupancy pins Degree to Eq. 35 evaluated over the
// materialised distribution, bit for bit, across V and the utilisations
// below saturation, and pins that it builds no distribution to get there.
func TestDegreeMatchesOccupancy(t *testing.T) {
	for v := 1; v <= 40; v++ {
		for _, rho := range []float64{1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-12} {
			p := Occupancy(v, rho)
			var num, den float64
			for i := 1; i <= v; i++ {
				num += float64(i*i) * p[i]
				den += float64(i) * p[i]
			}
			want := num / den
			// lambda·s = rho exactly with s = 1.
			got, err := Degree(v, rho, 1)
			if err != nil {
				t.Fatalf("Degree(%d, %v, 1): %v", v, rho, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Degree(%d, %v, 1) = %.17g, Occupancy gives %.17g", v, rho, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Degree(16, 0.004, 100) }); n > 0 {
		t.Errorf("Degree allocates %v times per call, want 0", n)
	}
}
