package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical values", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	r := New(3)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v, want ~0.3", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(1.0, 0.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(17)
	p := 0.25
	n := 100000
	sum := 0
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("Geometric returned negative %d", g)
		}
		sum += g
	}
	mean := float64(sum) / float64(n)
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(19)
	if g := r.Geometric(1.0); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 10, which must dominate rank 90.
	if !(counts[0] > counts[10] && counts[10] > counts[90]) {
		t.Fatalf("Zipf not skewed: c0=%d c10=%d c90=%d", counts[0], counts[10], counts[90])
	}
	// Rank 0 frequency should be roughly 1/H(100) ~ 0.192 for s=1.
	got := float64(counts[0]) / float64(n)
	if got < 0.15 || got > 0.25 {
		t.Fatalf("Zipf rank-0 frequency = %v, want ~0.19", got)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 17, 0.8)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
	if z.N() != 17 {
		t.Fatalf("N() = %d, want 17", z.N())
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 4096, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

// TestZipfGuideMatchesReference verifies the guide table is a pure
// accelerator sized to its rank count: it has the next power of two at
// or above n buckets, capped at zipfGuideBuckets, and for every draw the
// narrowed binary search returns exactly the rank a full lower-bound
// search over the CDF would.
func TestZipfGuideMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, buckets int }{
		{1, 1}, {2, 2}, {3, 4}, {17, 32}, {255, 256}, {256, 256}, {257, 512}, {4096, 4096}, {12288, 4096},
	} {
		n := tc.n
		z := NewZipf(New(uint64(n)), n, 0.8)
		if len(z.guide) != tc.buckets+1 || z.buckets != float64(tc.buckets) {
			t.Fatalf("n=%d: %d guide entries for %v buckets, want %d buckets", n, len(z.guide), z.buckets, tc.buckets)
		}
		ref := New(99)
		for i := 0; i < 20000; i++ {
			u := ref.Float64()
			// Reference: first cdf entry >= u over the full range.
			lo, hi := 0, len(z.cdf)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if z.cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			k := int(u * z.buckets)
			glo, ghi := int(z.guide[k]), int(z.guide[k+1])
			for glo < ghi {
				mid := (glo + ghi) / 2
				if z.cdf[mid] < u {
					glo = mid + 1
				} else {
					ghi = mid
				}
			}
			if glo != lo {
				t.Fatalf("n=%d u=%v: guided search %d != reference %d", n, u, glo, lo)
			}
		}
	}
}

// TestBernoulliMatchesBool verifies the precomputed-threshold sampler
// consumes the same draws and returns the same booleans as Source.Bool.
func TestBernoulliMatchesBool(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.22, 0.5, 0.999, 1} {
		a, b := New(7), New(7)
		bern := NewBernoulli(p)
		for i := 0; i < 50000; i++ {
			if got, want := bern.Draw(a), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Bernoulli %v != Bool %v", p, i, got, want)
			}
		}
	}
}

// TestZipfCacheIsLocal: a ZipfCache shares one table per shape among
// its own samplers, draws exactly what NewZipf draws, and leaves the
// process-wide tables alone, so its shapes go with its owner.
func TestZipfCacheIsLocal(t *testing.T) {
	const n, s = 1237, 0.913
	var c ZipfCache
	a, b := c.NewZipf(New(1), n, s), c.NewZipf(New(2), n, s)
	if a.zipfTable != b.zipfTable {
		t.Fatal("one cache built two tables for one shape")
	}
	if _, ok := zipfTables.Load(zipfKey{n, s}); ok {
		t.Fatal("a cached shape reached the process-wide tables")
	}
	ref := NewZipf(New(1), n, s)
	for i := 0; i < 10000; i++ {
		if got, want := a.Next(), ref.Next(); got != want {
			t.Fatalf("draw %d: %d from the cache, %d from NewZipf", i, got, want)
		}
	}
}
