// Package workloads generates the synthetic datasets driving the
// experiments: power-law graphs standing in for the LDBC datagen social
// graphs, labeled points standing in for the SparkBench ML generators, and
// relational rows for the SQL workload. All generation is deterministic
// given a seed.
package workloads

import "math"

// Rand is a small deterministic PRNG (splitmix64) so every experiment is
// exactly reproducible.
type Rand struct {
	state uint64
}

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("workloads: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// ZipfSampler draws samples in [0, n) with P(k) ∝ 1/(k+1)^s. It inverts
// the CDF of the continuous analogue in closed form, which is adequate
// for degree and key-popularity skew and far cheaper than inverting a
// precomputed discrete CDF, with the distribution's constants computed
// once.
type ZipfSampler struct {
	n  int
	s1 bool    // s == 1: the inverse CDF is n^u - 1
	fn float64 // float64(n)
	c  float64 // n^(1-s) - 1
	e  float64 // 1/(1-s)
}

// NewZipfSampler precomputes the constants of the (n, s) distribution.
func NewZipfSampler(n int, s float64) ZipfSampler {
	return ZipfSampler{n: n, s1: s == 1, fn: float64(n),
		c: math.Pow(float64(n), 1-s) - 1, e: 1 / (1 - s)}
}

// Draw returns the next sample from r. It consumes no randomness when
// n <= 1.
func (z ZipfSampler) Draw(r *Rand) int {
	if z.n <= 1 {
		return 0
	}
	u := r.Float64()
	if z.s1 {
		return clampZipf(int(math.Pow(z.fn, u))-1, z.n)
	}
	return clampZipf(int(math.Pow(u*z.c+1, z.e)-1), z.n)
}

// clampZipf clamps a Zipf sample to [0, n).
func clampZipf(k, n int) int {
	if k < 0 {
		return 0
	}
	if k >= n {
		return n - 1
	}
	return k
}
