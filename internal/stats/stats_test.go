package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"anole/internal/xrand"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single-element summary: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {-1, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestBoxplotOf(t *testing.T) {
	b := BoxplotOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 9 {
		t.Fatalf("boxplot: %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Fatalf("quartiles: %+v", b)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := xrand.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Norm()
	}
	pts := CDF(xs)
	if pts[len(pts)-1].Frac != 1 {
		t.Fatalf("CDF should end at 1, got %v", pts[len(pts)-1].Frac)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value || pts[i].Frac <= pts[i-1].Frac {
			t.Fatal("CDF not strictly increasing")
		}
	}
}

func TestCDFTies(t *testing.T) {
	pts := CDF([]float64{1, 1, 2})
	if len(pts) != 2 {
		t.Fatalf("expected 2 distinct points, got %d", len(pts))
	}
	if !almostEqual(pts[0].Frac, 2.0/3.0, 1e-12) {
		t.Fatalf("P(X<=1) = %v", pts[0].Frac)
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Fatalf("CDFAt = %v", got)
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Fatalf("empty CDFAt = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0, 0.5, 1.5, 2.5, 10, -5}, 0, 3, 3)
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("histogram: %v", counts)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	counts := Histogram([]float64{1, 2}, 5, 5, 4)
	if counts[0] != 2 {
		t.Fatalf("degenerate histogram: %v", counts)
	}
	if Histogram(nil, 0, 1, 0) != nil {
		t.Fatal("zero bins should return nil")
	}
}

func TestGiniBalanced(t *testing.T) {
	if g := Gini([]float64{5, 5, 5, 5}); !almostEqual(g, 0, 1e-12) {
		t.Fatalf("balanced Gini = %v", g)
	}
}

func TestGiniConcentrated(t *testing.T) {
	g := Gini([]float64{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("concentrated Gini = %v, want high", g)
	}
}

func TestGiniOrderInvariant(t *testing.T) {
	a := Gini([]float64{1, 5, 2, 9})
	b := Gini([]float64{9, 2, 5, 1})
	if !almostEqual(a, b, 1e-12) {
		t.Fatalf("Gini order-dependent: %v vs %v", a, b)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8})
	if out[2] != 1 || out[0] != 0.25 {
		t.Fatalf("normalize: %v", out)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 {
		t.Fatal("zero normalize should stay zero")
	}
}

func TestPowerLawAlpha(t *testing.T) {
	// Construct a perfect power law with alpha = 1.5.
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = math.Pow(float64(i+1), -1.5)
	}
	alpha := PowerLawAlpha(xs)
	if !almostEqual(alpha, 1.5, 1e-9) {
		t.Fatalf("alpha = %v, want 1.5", alpha)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if PowerLawAlpha([]float64{0, 0}) != 0 {
		t.Fatal("degenerate power law should be 0")
	}
	if PowerLawAlpha([]float64{1}) != 0 {
		t.Fatal("single sample should be 0")
	}
}

func TestComputePRF1(t *testing.T) {
	m := ComputePRF1(8, 2, 2)
	if !almostEqual(m.Precision, 0.8, 1e-12) || !almostEqual(m.Recall, 0.8, 1e-12) {
		t.Fatalf("precision/recall: %+v", m)
	}
	if !almostEqual(m.F1, 0.8, 1e-12) {
		t.Fatalf("F1: %v", m.F1)
	}
}

func TestComputePRF1Zeros(t *testing.T) {
	m := ComputePRF1(0, 0, 0)
	if m.F1 != 0 || m.Precision != 0 || m.Recall != 0 {
		t.Fatalf("zero counts should give zero metrics: %+v", m)
	}
}

func TestPRF1Add(t *testing.T) {
	a := ComputePRF1(1, 1, 0)
	b := ComputePRF1(3, 0, 1)
	c := a.Add(b)
	if c.TP != 4 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("accumulated counts: %+v", c)
	}
	if !almostEqual(c.Precision, 0.8, 1e-12) {
		t.Fatalf("accumulated precision: %v", c.Precision)
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix(3)
	cm.Observe(0, 0)
	cm.Observe(0, 0)
	cm.Observe(0, 1)
	cm.Observe(1, 1)
	cm.Observe(2, 0)
	cm.Observe(-1, 0) // ignored
	cm.Observe(0, 9)  // ignored
	if !almostEqual(cm.Accuracy(), 3.0/5.0, 1e-12) {
		t.Fatalf("accuracy = %v", cm.Accuracy())
	}
	norm := cm.RowNormalized()
	if !almostEqual(norm[0][0], 2.0/3.0, 1e-12) {
		t.Fatalf("row norm: %v", norm[0])
	}
	if norm[2][0] != 1 {
		t.Fatalf("row 2: %v", norm[2])
	}
}

func TestConfusionDiagonalMass(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Observe(0, 0)
	cm.Observe(1, 1)
	if cm.DiagonalMass() != 1 {
		t.Fatalf("perfect matrix diagonal mass = %v", cm.DiagonalMass())
	}
	empty := NewConfusionMatrix(2)
	if empty.DiagonalMass() != 0 {
		t.Fatal("empty matrix diagonal mass should be 0")
	}
}

func TestConfusionString(t *testing.T) {
	cm := NewConfusionMatrix(2)
	cm.Observe(0, 0)
	if cm.String() == "" {
		t.Fatal("String should render something")
	}
}

func TestArgmaxFloat(t *testing.T) {
	if ArgmaxFloat([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgmaxFloat(nil) != -1 {
		t.Fatal("empty argmax should be -1")
	}
	if ArgmaxFloat([]float64{2, 2}) != 0 {
		t.Fatal("tie should pick first")
	}
}

func TestRankDescending(t *testing.T) {
	ranks := RankDescending([]float64{0.1, 0.9, 0.5})
	want := []int{1, 2, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v", ranks)
		}
	}
}

func TestRankDescendingStableTies(t *testing.T) {
	ranks := RankDescending([]float64{0.5, 0.5, 0.9})
	if ranks[0] != 2 || ranks[1] != 0 || ranks[2] != 1 {
		t.Fatalf("tie ranks = %v", ranks)
	}
}

// TestRankDescendingIntoMatchesSliceStable is the property test behind
// the allocation-free ranking: on random scores drawn from a few levels
// (so ties are common), for every n from 1 to 40, RankDescendingInto
// must return exactly the order sort.SliceStable produces, whether dst
// is nil, too short or reused with stale contents.
func TestRankDescendingIntoMatchesSliceStable(t *testing.T) {
	rng := xrand.New(78)
	dst := make([]int, 3)
	for trial := 0; trial < 200; trial++ {
		for n := 1; n <= 40; n++ {
			xs := make([]float64, n)
			levels := 1 + rng.Intn(n)
			for i := range xs {
				xs[i] = float64(rng.Intn(levels)) / float64(levels)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return xs[want[a]] > xs[want[b]] })
			dst = RankDescendingInto(dst, xs)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("n=%d xs=%v: RankDescendingInto %v, sort.SliceStable %v", n, xs, dst, want)
				}
			}
		}
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	r := xrand.New(77)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(40) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Norm()
		}
		q := rr.Float64()
		v := Quantile(xs, q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0]-1e-12 && v <= sorted[n-1]+1e-12
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGiniPropertyRange(t *testing.T) {
	r := xrand.New(88)
	if err := quick.Check(func(seed uint32) bool {
		rr := r.Split(uint64(seed))
		n := rr.Intn(30) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Float64() * 10
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPRF1PropertyF1BetweenPandR(t *testing.T) {
	// F1 is the harmonic mean, so it lies between min and max of P and R.
	if err := quick.Check(func(tp, fp, fn uint8) bool {
		m := ComputePRF1(int(tp)+1, int(fp), int(fn))
		lo := math.Min(m.Precision, m.Recall)
		hi := math.Max(m.Precision, m.Recall)
		return m.F1 >= lo-1e-12 && m.F1 <= hi+1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECEPerfectlyCalibrated(t *testing.T) {
	// Confidence 0.75, accuracy 0.75 → ECE ~0.
	r := xrand.New(21)
	var confs []float64
	var correct []bool
	for i := 0; i < 8000; i++ {
		confs = append(confs, 0.75)
		correct = append(correct, r.Bool(0.75))
	}
	if e := ECE(confs, correct, 10); e > 0.02 {
		t.Fatalf("calibrated ECE = %v", e)
	}
}

func TestECEOverconfident(t *testing.T) {
	// Confidence 0.95 but accuracy 0.5 → ECE ≈ 0.45.
	r := xrand.New(22)
	var confs []float64
	var correct []bool
	for i := 0; i < 8000; i++ {
		confs = append(confs, 0.95)
		correct = append(correct, r.Bool(0.5))
	}
	e := ECE(confs, correct, 10)
	if e < 0.4 || e > 0.5 {
		t.Fatalf("overconfident ECE = %v, want ~0.45", e)
	}
}

func TestECEDegenerate(t *testing.T) {
	if ECE(nil, nil, 10) != 0 {
		t.Fatal("empty ECE should be 0")
	}
	if ECE([]float64{0.5}, []bool{true, false}, 10) != 0 {
		t.Fatal("length mismatch should be 0")
	}
	if ECE([]float64{0.5}, []bool{true}, 0) != 0 {
		t.Fatal("zero bins should be 0")
	}
}
