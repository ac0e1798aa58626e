package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Count() != 0 || !IsZero(r.Mean()) || !IsZero(r.Variance()) || !IsZero(r.StdErr()) {
		t.Errorf("zero value not neutral: %+v", r)
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.Count() != 8 {
		t.Errorf("count %d", r.Count())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean %v, want 5", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("variance %v, want %v", r.Variance(), 32.0/7.0)
	}
	if !ApproxEqual(r.Min(), 2, 0, 0) || !ApproxEqual(r.Max(), 9, 0, 0) {
		t.Errorf("min/max %v/%v", r.Min(), r.Max())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(42)
	if !ApproxEqual(r.Mean(), 42, 0, 0) || !IsZero(r.Variance()) || !ApproxEqual(r.Min(), 42, 0, 0) || !ApproxEqual(r.Max(), 42, 0, 0) {
		t.Errorf("single obs: %+v", r)
	}
}

func TestRunningMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Running
	xs := make([]float64, 0, 500)
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()*10 + 100
		xs = append(xs, x)
		r.Add(x)
	}
	mean := MeanOf(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	naiveVar := ss / float64(len(xs)-1)
	if math.Abs(r.Mean()-mean) > 1e-9 {
		t.Errorf("mean %v vs naive %v", r.Mean(), mean)
	}
	if math.Abs(r.Variance()-naiveVar) > 1e-9 {
		t.Errorf("variance %v vs naive %v", r.Variance(), naiveVar)
	}
}

func TestRunningMergeEqualsSequential(t *testing.T) {
	// Constrain magnitudes so squared deviations stay finite.
	clamp := func(x float64) float64 {
		if math.IsNaN(x) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	f := func(a, b []float64) bool {
		var all, left, right Running
		for _, x := range a {
			all.Add(clamp(x))
			left.Add(clamp(x))
		}
		for _, x := range b {
			all.Add(clamp(x))
			right.Add(clamp(x))
		}
		left.Merge(&right)
		if all.Count() != left.Count() {
			return false
		}
		if all.Count() == 0 {
			return true
		}
		return math.Abs(all.Mean()-left.Mean()) < 1e-9 &&
			math.Abs(all.Variance()-left.Variance()) < 1e-6*(1+all.Variance())
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // no-op
	if a.Count() != 2 || !ApproxEqual(a.Mean(), 2, 0, 0) {
		t.Errorf("merge with empty changed state: %+v", a)
	}
	b.Merge(&a)
	if b.Count() != 2 || !ApproxEqual(b.Mean(), 2, 0, 0) {
		t.Errorf("merge into empty wrong: %+v", b)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var small, large Running
	for i := 0; i < 100; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Errorf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestRunningString(t *testing.T) {
	var r Running
	r.Add(1)
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestBatchMeansSteadyOnStationaryStream(t *testing.T) {
	b := NewBatchMeans(100, 4, 0.05)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		b.Add(50 + rng.Float64()) // tiny noise around 50
	}
	if !b.Steady() {
		t.Fatal("stationary stream not detected as steady")
	}
	if m := b.SteadyMean(); math.Abs(m-50.5) > 0.2 {
		t.Errorf("steady mean %v, want ~50.5", m)
	}
}

func TestBatchMeansNotSteadyOnTrend(t *testing.T) {
	b := NewBatchMeans(100, 4, 0.05)
	for i := 0; i < 2000; i++ {
		b.Add(float64(i)) // strong upward trend
	}
	if b.Steady() {
		t.Fatal("trending stream declared steady")
	}
}

func TestBatchMeansNeedsWindow(t *testing.T) {
	b := NewBatchMeans(10, 5, 0.05)
	for i := 0; i < 30; i++ { // only 3 batches < window 5
		b.Add(1)
	}
	if b.Steady() {
		t.Error("steady with fewer batches than window")
	}
	if b.Batches() != 3 {
		t.Errorf("batches = %d, want 3", b.Batches())
	}
}

// TestBatchMeansRejectsNonPositiveParameters: a zero or negative
// parameter is a caller's bug and panics; nothing falls back to a default.
func TestBatchMeansRejectsNonPositiveParameters(t *testing.T) {
	for _, p := range []struct {
		batchSize, window int
		relTol            float64
	}{{0, 4, 0.05}, {500, 0, 0.05}, {500, 4, 0}, {-1, 4, 0.05}, {500, 4, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBatchMeans(%d, %d, %v) did not panic", p.batchSize, p.window, p.relTol)
				}
			}()
			NewBatchMeans(p.batchSize, p.window, p.relTol)
		}()
	}
}

func TestBatchMeansAddSignalsBatchCompletion(t *testing.T) {
	b := NewBatchMeans(3, 2, 0.1)
	completions := 0
	for i := 0; i < 10; i++ {
		if b.Add(1) {
			completions++
		}
	}
	if completions != 3 {
		t.Errorf("completions = %d, want 3", completions)
	}
}

func TestBatchMeansZeroMeanSteady(t *testing.T) {
	b := NewBatchMeans(10, 2, 0.05)
	for i := 0; i < 40; i++ {
		b.Add(0)
	}
	if !b.Steady() {
		t.Error("all-zero stream should be steady")
	}
}

func TestBatchMeansSliceCopy(t *testing.T) {
	b := NewBatchMeans(2, 2, 0.05)
	for i := 0; i < 6; i++ {
		b.Add(float64(i))
	}
	s := b.BatchMeansSlice()
	if len(s) != 3 {
		t.Fatalf("slice length %d", len(s))
	}
	s[0] = 999
	if ApproxEqual(b.BatchMeansSlice()[0], 999, 0, 0) {
		t.Error("BatchMeansSlice leaks internal storage")
	}
}

func TestBatchMeansSteadyMeanBeforeAnyBatch(t *testing.T) {
	b := NewBatchMeans(100, 2, 0.05)
	b.Add(7)
	if m := b.SteadyMean(); !ApproxEqual(m, 7, 0, 0) {
		t.Errorf("SteadyMean with partial batch = %v, want 7", m)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	for _, x := range []float64{1, 5, 15, 25, 25, 95} {
		h.Add(x)
	}
	if h.Count() != 6 {
		t.Errorf("count %d", h.Count())
	}
	if math.Abs(h.Mean()-166.0/6.0) > 1e-12 {
		t.Errorf("mean %v", h.Mean())
	}
	if got := h.Quantile(0.5); !ApproxEqual(got, 20, 0, 0) { // 3rd of 6 obs (15) is in bucket [10,20)
		t.Errorf("median bucket edge %v, want 20", got)
	}
	if !ApproxEqual(h.Median(), h.Quantile(0.5), 0, 0) {
		t.Error("Median != Quantile(0.5)")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram(1)
	h.Add(-5)
	if h.Count() != 1 || !ApproxEqual(h.Quantile(1), 1, 0, 0) {
		t.Errorf("negative obs: count=%d q1=%v", h.Count(), h.Quantile(1))
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(1)
	if !IsZero(h.Quantile(0.9)) || !IsZero(h.Mean()) {
		t.Error("empty histogram should return zeros")
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	h := NewHistogram(1)
	h.Add(0.5)
	if !ApproxEqual(h.Quantile(-1), h.Quantile(0), 0, 0) {
		t.Error("q<0 not clamped")
	}
	if !ApproxEqual(h.Quantile(2), h.Quantile(1), 0, 0) {
		t.Error("q>1 not clamped")
	}
}

func TestHistogramDefaultWidth(t *testing.T) {
	h := NewHistogram(0)
	if !ApproxEqual(h.Width, 1, 0, 0) {
		t.Errorf("width %v, want fallback 1", h.Width)
	}
}

func TestMeanOfMedianOf(t *testing.T) {
	if !IsZero(MeanOf(nil)) || !IsZero(MedianOf(nil)) {
		t.Error("empty slices should yield 0")
	}
	if !ApproxEqual(MeanOf([]float64{1, 2, 3, 4}), 2.5, 0, 0) {
		t.Error("MeanOf wrong")
	}
	if !ApproxEqual(MedianOf([]float64{3, 1, 2}), 2, 0, 0) {
		t.Error("odd MedianOf wrong")
	}
	if !ApproxEqual(MedianOf([]float64{4, 1, 3, 2}), 2.5, 0, 0) {
		t.Error("even MedianOf wrong")
	}
	xs := []float64{9, 1, 5}
	MedianOf(xs)
	if !ApproxEqual(xs[0], 9, 0, 0) {
		t.Error("MedianOf mutated input")
	}
}

func TestFromMomentsRoundTrip(t *testing.T) {
	var r Running
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		r.Add(rng.NormFloat64()*3 + 10)
	}
	re := FromMoments(r.Count(), r.Mean(), r.Variance())
	if re.Count() != r.Count() {
		t.Errorf("count %d, want %d", re.Count(), r.Count())
	}
	if math.Abs(re.Mean()-r.Mean()) > 1e-12 {
		t.Errorf("mean %v, want %v", re.Mean(), r.Mean())
	}
	if math.Abs(re.Variance()-r.Variance()) > 1e-9 {
		t.Errorf("variance %v, want %v", re.Variance(), r.Variance())
	}
}

func TestFromMomentsDegenerate(t *testing.T) {
	if r := FromMoments(0, 5, 2); r.Count() != 0 {
		t.Errorf("n=0 should be empty, got %+v", r)
	}
	r := FromMoments(1, 5, 0)
	if r.Count() != 1 || !ApproxEqual(r.Mean(), 5, 0, 0) || !IsZero(r.Variance()) {
		t.Errorf("n=1 round-trip wrong: %+v", r)
	}
}

func TestFromMomentsMergeMatchesStream(t *testing.T) {
	// Pooling two reconstructed halves must match accumulating the whole
	// stream directly (up to FP noise).
	rng := rand.New(rand.NewSource(11))
	var a, b, whole Running
	for i := 0; i < 400; i++ {
		x := rng.ExpFloat64() * 50
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	ra := FromMoments(a.Count(), a.Mean(), a.Variance())
	rb := FromMoments(b.Count(), b.Mean(), b.Variance())
	ra.Merge(&rb)
	if ra.Count() != whole.Count() {
		t.Fatalf("count %d, want %d", ra.Count(), whole.Count())
	}
	if math.Abs(ra.Mean()-whole.Mean()) > 1e-9 {
		t.Errorf("pooled mean %v, want %v", ra.Mean(), whole.Mean())
	}
	if math.Abs(ra.Variance()-whole.Variance()) > 1e-6*whole.Variance() {
		t.Errorf("pooled variance %v, want %v", ra.Variance(), whole.Variance())
	}
}

func TestPooledMean(t *testing.T) {
	// Single replication: pooling must reproduce the inputs.
	mean, ci, n := PooledMean([]int64{2000}, []float64{55.5}, []float64{0.8})
	if n != 2000 || math.Abs(mean-55.5) > 1e-12 || math.Abs(ci-0.8) > 1e-9 {
		t.Errorf("identity pooling: mean=%v ci=%v n=%d", mean, ci, n)
	}
	// Two identical replications: same mean, CI shrinks by ~1/sqrt(2).
	mean2, ci2, n2 := PooledMean([]int64{2000, 2000}, []float64{55.5, 55.5}, []float64{0.8, 0.8})
	if n2 != 4000 || math.Abs(mean2-55.5) > 1e-12 {
		t.Errorf("equal pooling: mean=%v n=%d", mean2, n2)
	}
	want := 0.8 / math.Sqrt2
	if math.Abs(ci2-want) > 0.01*want {
		t.Errorf("pooled CI %v, want ~%v", ci2, want)
	}
	// Weighted mean for unequal counts.
	mean3, _, _ := PooledMean([]int64{1000, 3000}, []float64{40, 60}, []float64{1, 1})
	if math.Abs(mean3-55) > 1e-12 {
		t.Errorf("weighted mean %v, want 55", mean3)
	}
	// Empty input is neutral.
	if m, c, n := PooledMean(nil, nil, nil); !IsZero(m) || !IsZero(c) || n != 0 {
		t.Errorf("empty pooling: %v %v %d", m, c, n)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, rel, abs float64
		want           bool
	}{
		{1, 1, 0, 0, true},                    // exact match at zero tolerance
		{1, 1 + 1e-12, 0, 0, false},           // zero tolerance is exact
		{1, 1.04, 0.05, 0, true},              // within relative tolerance
		{1, 1.06, 0.05, 0, false},             // outside relative tolerance
		{0, 1e-10, 0, 1e-9, true},             // absolute tolerance near zero
		{0, 1e-8, 0, 1e-9, false},             // outside absolute tolerance
		{math.NaN(), math.NaN(), 1, 1, false}, // NaN equals nothing
		{math.NaN(), 1, 1, 1, false},
		{math.Inf(1), math.Inf(1), 0, 0, true}, // same-sign infinities agree
		{math.Inf(1), math.Inf(-1), 1, 1, false},
		{math.Inf(1), 1e308, 1, 1, false}, // infinity only equals infinity
		{-2, 2, 0.5, 0, false},            // symmetric: rel scales max(|a|,|b|)
		{100, 104, 0.05, 0, true},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.rel, c.abs); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v, %v) = %v, want %v",
				c.a, c.b, c.rel, c.abs, got, c.want)
		}
	}
	if ApproxEqual(1, 2, 0, 0) != ApproxEqual(2, 1, 0, 0) {
		t.Error("ApproxEqual not symmetric")
	}
}

func TestIsZero(t *testing.T) {
	if !IsZero(0) {
		t.Error("IsZero(0) = false")
	}
	negZero := math.Copysign(0, -1)
	if !IsZero(negZero) {
		t.Error("IsZero(-0) = false")
	}
	for _, x := range []float64{1e-300, -1e-300, 1, math.NaN(), math.Inf(1)} {
		if IsZero(x) {
			t.Errorf("IsZero(%v) = true", x)
		}
	}
}

func TestQuantileOf(t *testing.T) {
	if !IsZero(QuantileOf(nil, 0.5)) {
		t.Error("empty QuantileOf not zero")
	}
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14},
	} {
		if got := QuantileOf(xs, c.q); !ApproxEqual(got, c.want, 1e-12, 0) {
			t.Errorf("QuantileOf(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !ApproxEqual(xs[0], 40, 0, 0) {
		t.Error("QuantileOf sorted its input in place")
	}
	// The quartiles of four samples interpolate between order statistics.
	if got := QuantileOf([]float64{4, 1, 3, 2}, 0.75) - QuantileOf([]float64{4, 1, 3, 2}, 0.25); !ApproxEqual(got, 1.5, 1e-12, 0) {
		t.Errorf("IQR of 1..4 = %v, want 1.5", got)
	}
}
