package workloads

import "math"

// CacheStats reports aggregate hit/miss counts across the three dataset
// caches.
func CacheStats() (hits, misses int64) {
	hits = graphCache.hits.Load() + pointsCache.hits.Load() + rowsCache.hits.Load()
	misses = graphCache.misses.Load() + pointsCache.misses.Load() + rowsCache.misses.Load()
	return hits, misses
}

// Zipf is the reference form of ZipfSampler: a sample in [0, n) with
// P(k) ∝ 1/(k+1)^s, from the closed-form inverse CDF of the continuous
// analogue, with the distribution's constants recomputed on every call.
func (r *Rand) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	u := r.Float64()
	if s == 1 {
		return clampZipf(int(math.Pow(float64(n), u))-1, n)
	}
	x := math.Pow(u*(math.Pow(float64(n), 1-s)-1)+1, 1/(1-s)) - 1
	return clampZipf(int(x), n)
}
