// Package xrand provides small, fast, deterministic random number
// generators and distributions used by the synthetic workload generator.
//
// Everything in this package is seed-deterministic: the same seed always
// produces the same sequence on every platform, which makes every
// experiment in the repository exactly reproducible.
package xrand

import (
	"math"
	"math/bits"
	"sync"
)

// Source is a deterministic 64-bit PRNG based on xoshiro256**, seeded via
// splitmix64. The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using splitmix64 so that
// even adjacent seeds produce uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Bernoulli is a fixed-probability boolean sampler with the comparison
// threshold precomputed. Draw consumes exactly one Uint64 and returns
// exactly what Source.Bool(p) would have returned for the same draw, so
// replacing a hot-loop Bool(p) with a Bernoulli never changes results.
type Bernoulli struct {
	// threshold is p * 2^53; Float64() < p  ⇔  float64(u>>11) < p*2^53,
	// and both scalings by the power of two are exact.
	threshold float64
}

// NewBernoulli builds a sampler that draws true with probability p.
func NewBernoulli(p float64) Bernoulli {
	return Bernoulli{threshold: p * (1 << 53)}
}

// Draw returns true with the sampler's probability, consuming one Uint64
// from src.
func (b Bernoulli) Draw(src *Source) bool {
	return float64(src.Uint64()>>11) < b.threshold
}

// NormFloat64 returns a standard normal variate (Box-Muller, one value per
// call for simplicity and determinism).
func (r *Source) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns exp(N(mu, sigma)).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Geometric returns a geometric variate with success probability p, i.e.
// the number of failures before the first success (support {0,1,2,...}).
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p >= 1 {
		if p >= 1 {
			return 0
		}
		panic("xrand: Geometric requires 0 < p <= 1")
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / math.Log(1-p))
}

// zipfGuideBuckets caps the guide table that narrows Next's binary
// search: bucket k covers u in [k/buckets, (k+1)/buckets). A table takes
// the next power of two at or above its rank count, up to this cap: a
// 13-rank callee draw needs 16 buckets, not 4096. At 4096 buckets the
// largest samplers in the tree (the 8192-block data-address draw in
// every core's dispatch loop) resolve in one or two probes; tables are
// shared by shape, so a full 16 KiB guide is paid once per distinct
// (n, s), not per core.
const zipfGuideBuckets = 4096

// zipfTable is the immutable precomputed half of a Zipf sampler. The
// CDF and guide are pure functions of (n, s), so every sampler over the
// same shape shares one table; only the RNG stream is per-sampler.
type zipfTable struct {
	cdf []float64
	// guide[k] is the first rank whose cdf covers u = k/buckets, for
	// buckets = len(guide)-1 (a power of two, so u*buckets is exact); the
	// answer for any u in bucket k lies in [guide[k], guide[k+1]].
	guide   []int32
	buckets float64
}

// zipfTables caches the simulator's tables by shape, for the life of
// the process: the math.Pow sweep over n ranks is a measurable slice of
// per-core construction in many-core scenarios, and the values are
// identical every time. Generation-only shapes go through a ZipfCache
// instead, which its owner drops.
var zipfTables sync.Map

type zipfKey struct {
	n int
	s float64
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s using precomputed cumulative weights. It is the workhorse
// behind hot/cold function popularity in the workload generator and the
// per-load data-address draw in the core's dispatch loop, where a guide
// table cuts the CDF binary search from ~log2(n) probes to one or two.
type Zipf struct {
	*zipfTable
	src *Source
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
// Samplers with the same (n, s) share one immutable CDF/guide table,
// kept for the life of the process.
func NewZipf(src *Source, n int, s float64) *Zipf {
	key := zipfKey{n, s}
	if v, ok := zipfTables.Load(key); ok {
		return &Zipf{zipfTable: v.(*zipfTable), src: src}
	}
	v, _ := zipfTables.LoadOrStore(key, newZipfTable(n, s))
	return &Zipf{zipfTable: v.(*zipfTable), src: src}
}

// ZipfCache shares Zipf tables by shape among the samplers one owner
// builds, and lets them go with the owner: the program generator draws
// from each of its shapes during one build only. The zero value is an
// empty cache; it is not safe for concurrent use.
type ZipfCache struct {
	tables map[zipfKey]*zipfTable
}

// NewZipf is the package's NewZipf over the cache's tables.
func (c *ZipfCache) NewZipf(src *Source, n int, s float64) *Zipf {
	key := zipfKey{n, s}
	t, ok := c.tables[key]
	if !ok {
		if c.tables == nil {
			c.tables = make(map[zipfKey]*zipfTable)
		}
		t = newZipfTable(n, s)
		c.tables[key] = t
	}
	return &Zipf{zipfTable: t, src: src}
}

// newZipfTable computes the table of the Zipf distribution over n ranks
// with exponent s.
func newZipfTable(n int, s float64) *zipfTable {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// Build the guide in one sweep: guide[k] = first i with
	// cdf[i] >= k/buckets (clamped to n-1, matching Next's hi bound).
	buckets := min(1<<bits.Len(uint(n-1)), zipfGuideBuckets)
	guide := make([]int32, buckets+1)
	i := 0
	for k := range guide {
		u := float64(k) / float64(buckets)
		for i < n-1 && cdf[i] < u {
			i++
		}
		guide[k] = int32(i)
	}
	return &zipfTable{cdf: cdf, guide: guide, buckets: float64(buckets)}
}

// Next returns the next Zipf-distributed rank in [0, n). The guide table
// only narrows the search interval; the returned rank is identical to a
// full binary search for every u.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	k := int(u * z.buckets) // u in [0,1) ⇒ k in [0, buckets)
	lo, hi := int(z.guide[k]), int(z.guide[k+1])
	// Binary search for the first cdf entry >= u within [lo, hi].
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }
