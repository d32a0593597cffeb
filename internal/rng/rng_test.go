package rng

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(1)
	c1 := g.Split()
	c2 := g.Split()
	if c1.Float64() == c2.Float64() && c1.Float64() == c2.Float64() {
		t.Fatal("split children should differ")
	}
}

func TestGaussianMoments(t *testing.T) {
	g := New(7)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Gaussian(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	g := New(11)
	for _, shape := range []float64{0.5, 1, 2.5, 10} {
		n := 100000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := g.Gamma(shape)
			if v < 0 {
				t.Fatalf("negative gamma sample %v", v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		if math.Abs(mean-shape) > 0.15*shape+0.05 {
			t.Fatalf("Gamma(%v) mean = %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.25*shape+0.1 {
			t.Fatalf("Gamma(%v) variance = %v", shape, variance)
		}
	}
}

func TestGammaPanicsOnNonPositiveShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Gamma(0)
}

func TestBetaRangeAndMean(t *testing.T) {
	g := New(13)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		v := g.Beta(2, 5)
		if v < 0 || v > 1 {
			t.Fatalf("Beta out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-2.0/7.0) > 0.01 {
		t.Fatalf("Beta(2,5) mean = %v, want %v", mean, 2.0/7.0)
	}
}

func TestDirichletSimplexProperty(t *testing.T) {
	g := New(17)
	f := func(seed int64) bool {
		k := 2 + int(seed%7+7)%7
		alpha := make([]float64, k)
		for i := range alpha {
			alpha[i] = 0.1 + g.Float64()*3
		}
		p := g.Dirichlet(alpha)
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletMean(t *testing.T) {
	g := New(19)
	alpha := []float64{1, 2, 7}
	sum := make([]float64, 3)
	n := 50000
	for i := 0; i < n; i++ {
		p := g.Dirichlet(alpha)
		for j, v := range p {
			sum[j] += v
		}
	}
	for j, a := range alpha {
		want := a / 10
		if got := sum[j] / float64(n); math.Abs(got-want) > 0.01 {
			t.Fatalf("Dirichlet mean[%d] = %v, want %v", j, got, want)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	g := New(23)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	if got := float64(counts[0]) / float64(n); math.Abs(got-0.25) > 0.01 {
		t.Fatalf("category 0 freq = %v, want 0.25", got)
	}
}

func TestCategoricalPanicsOnZeroSum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestMultinomialTotal(t *testing.T) {
	g := New(29)
	counts := g.Multinomial(1000, []float64{1, 2, 3})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("Multinomial total = %d", total)
	}
}

func TestMVNormalMoments(t *testing.T) {
	g := New(31)
	// cov = [[4, 2], [2, 3]]
	cov := mat.FromSlice(2, 2, []float64{4, 2, 2, 3})
	l, err := mat.Cholesky(cov)
	if err != nil {
		t.Fatal(err)
	}
	mean := []float64{1, -2}
	n := 100000
	var m0, m1, c00, c01, c11 float64
	for i := 0; i < n; i++ {
		x := g.MVNormal(mean, l)
		m0 += x[0]
		m1 += x[1]
		d0, d1 := x[0]-1, x[1]+2
		c00 += d0 * d0
		c01 += d0 * d1
		c11 += d1 * d1
	}
	fn := float64(n)
	if math.Abs(m0/fn-1) > 0.05 || math.Abs(m1/fn+2) > 0.05 {
		t.Fatalf("MVN mean = (%v, %v)", m0/fn, m1/fn)
	}
	if math.Abs(c00/fn-4) > 0.15 || math.Abs(c01/fn-2) > 0.15 || math.Abs(c11/fn-3) > 0.15 {
		t.Fatalf("MVN cov = (%v, %v, %v)", c00/fn, c01/fn, c11/fn)
	}
}

func TestWishartMean(t *testing.T) {
	g := New(37)
	// E[Wishart(df, V)] = df * V
	v := mat.FromSlice(2, 2, []float64{1, 0.3, 0.3, 2})
	l, err := mat.Cholesky(v)
	if err != nil {
		t.Fatal(err)
	}
	df := 5.0
	n := 20000
	acc := mat.New(2, 2)
	for i := 0; i < n; i++ {
		w := g.Wishart(df, l)
		acc.AddInPlace(w)
		// SPD check on a few samples
		if i < 100 {
			if _, err := mat.Cholesky(w); err != nil {
				t.Fatalf("Wishart sample not SPD: %v", w)
			}
		}
	}
	acc.Scale(1 / float64(n))
	want := v.Clone()
	want.Scale(df)
	if !mat.Equal(acc, want, 0.15) {
		t.Fatalf("Wishart mean = %v, want %v", acc, want)
	}
}

func TestChiSquaredMean(t *testing.T) {
	g := New(41)
	df := 7.0
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.ChiSquared(df)
	}
	if mean := sum / float64(n); math.Abs(mean-df) > 0.15 {
		t.Fatalf("ChiSquared mean = %v, want %v", mean, df)
	}
}

func TestPoissonMean(t *testing.T) {
	g := New(43)
	for _, lambda := range []float64{0.5, 4, 30} {
		var sum float64
		n := 50000
		for i := 0; i < n; i++ {
			sum += float64(g.Poisson(lambda))
		}
		if mean := sum / float64(n); math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(47)
	sample := g.Zipf(10, 1.2)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[sample()]++
	}
	if counts[0] <= counts[5] || counts[5] <= counts[9] {
		t.Fatalf("Zipf counts not decreasing: %v", counts)
	}
	// s=0 is uniform
	u := g.Zipf(4, 0)
	uc := make([]int, 4)
	for i := 0; i < 40000; i++ {
		uc[u()]++
	}
	for _, c := range uc {
		if math.Abs(float64(c)-10000) > 500 {
			t.Fatalf("Zipf(s=0) not uniform: %v", uc)
		}
	}
}

func TestPermAndShuffle(t *testing.T) {
	g := New(53)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestExponentialMean(t *testing.T) {
	g := New(59)
	var sum float64
	n := 50000
	for i := 0; i < n; i++ {
		sum += g.Exponential(2)
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exponential(2) mean = %v, want 0.5", mean)
	}
}

func TestStateRoundTrip(t *testing.T) {
	g := New(42)
	// Burn a mixed workload so the state is mid-stream, not fresh.
	for i := 0; i < 100; i++ {
		g.Float64()
		g.Norm()
		g.Intn(7 + i)
		g.Gamma(0.5 + float64(i))
	}
	st := g.State()
	h, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a, b := g.Float64(), h.Float64(); a != b {
			t.Fatalf("stream diverged at %d: %v != %v", i, a, b)
		}
		if a, b := g.Norm(), h.Norm(); a != b {
			t.Fatalf("Norm diverged at %d: %v != %v", i, a, b)
		}
		if a, b := g.Intn(1000), h.Intn(1000); a != b {
			t.Fatalf("Intn diverged at %d: %d != %d", i, a, b)
		}
	}
}

func TestStateDoesNotAliasGenerator(t *testing.T) {
	g := New(1)
	st := g.State()
	g.Float64()
	if st == g.State() {
		t.Fatal("State snapshot should be decoupled from the live generator")
	}
}

func TestFromStateRejectsAllZero(t *testing.T) {
	if _, err := FromState([4]uint64{}); err == nil {
		t.Fatal("all-zero state must be rejected")
	}
}

// stateBefore returns a state whose next source output is out (other words
// arbitrary), by inverting the xoshiro256** output function
// rotl(s1*5, 7)*9 — both multipliers are odd, so invertible mod 2^64.
func stateBefore(out uint64) [4]uint64 {
	inv := func(a uint64) uint64 {
		x := a // Newton's iteration: correct bits double each step
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := rotl(out*inv(9), 64-7) * inv(5)
	return [4]uint64{0x9e3779b97f4a7c15, s1, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
}

func TestSkipFloat64MatchesFloat64(t *testing.T) {
	g := New(8)
	for trial := 0; trial < 200; trial++ {
		seed, n := g.Int63(), g.Intn(100)
		a, b := New(seed), New(seed)
		for i := 0; i < n; i++ {
			a.Float64()
		}
		b.SkipFloat64(n)
		if a.State() != b.State() {
			t.Fatalf("trial %d: SkipFloat64(%d) state differs from %d Float64 calls", trial, n, n)
		}
	}

	// A source output of all ones rounds to 1.0, so Float64 draws again:
	// the skip must redraw too.
	st := stateBefore(^uint64(0))
	probe, _ := FromState(st)
	if probe.src.Uint64() != ^uint64(0) {
		t.Fatal("stateBefore did not invert the output function")
	}
	a, _ := FromState(st)
	b, _ := FromState(st)
	twoSteps, _ := FromState(st)
	a.Float64()
	b.SkipFloat64(1)
	twoSteps.src.Uint64()
	twoSteps.src.Uint64()
	if a.State() != twoSteps.State() {
		t.Fatal("crafted state did not make Float64 redraw")
	}
	if b.State() != a.State() {
		t.Fatal("SkipFloat64 does not redraw when the draw rounds to 1.0")
	}
}

// TestZipfMatchesCategorical pins the binary-search Zipf sampler to
// Categorical over the same weights: identical draws and identical final
// stream positions.
func TestZipfMatchesCategorical(t *testing.T) {
	for _, tc := range []struct {
		n    int
		s    float64
		seed int64
	}{
		{1, 1.1, 1}, {10, 1.2, 2}, {1000, 0, 3}, {30000, 1.1, 4}, {5000, 2.5, 5}, {777, 0.7, 6},
	} {
		weights := make([]float64, tc.n)
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), tc.s)
		}
		a, b := New(tc.seed), New(tc.seed)
		zipf := a.Zipf(tc.n, tc.s)
		for i := 0; i < 10000; i++ {
			if got, want := zipf(), b.Categorical(weights); got != want {
				t.Fatalf("n=%d s=%v seed=%d draw %d: Zipf %d, Categorical %d", tc.n, tc.s, tc.seed, i, got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("n=%d s=%v: stream positions differ", tc.n, tc.s)
		}
	}
}

func TestZipfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0, s) draw did not panic")
		}
	}()
	New(1).Zipf(0, 1)()
}
