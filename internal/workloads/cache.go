package workloads

import (
	"sync"
	"sync/atomic"
)

// The experiment suite regenerates the same datasets over and over: every
// DRAM point of a figure ladder re-runs the same workload, and the
// generators are pure functions of their parameters. The cached variants
// below memoise generation so concurrent runs of the same workload share
// one generation pass and one in-memory dataset.
//
// Sharing contract: cached datasets are immutable. Consumers (graphx,
// mllib, sparksql, giraph) only read Graph.Adj / Points.X / Rows slices
// when materializing heap partitions — they never write back into the
// dataset. Any future workload that needs to mutate its input must
// deep-copy it first (or call the Gen* functions directly for a private
// instance).

// memoCache is a per-key-once cache: the first caller of a key generates
// the value while later callers of the same key block on that one
// generation and then share the result.
type memoCache[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*memoEntry[V]
	hits   atomic.Int64
	misses atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

func (c *memoCache[K, V]) get(k K, gen func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e, ok := c.m[k]
	if !ok {
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.v = gen() })
	return e.v
}

func (c *memoCache[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

type graphKey struct {
	seed   uint64
	n      int
	avgDeg float64
	skew   float64
}

type pointsKey struct {
	seed uint64
	n    int
	dim  int
}

type rowsKey struct {
	seed uint64
	n    int
	k    int
}

var (
	graphCache  memoCache[graphKey, *Graph]
	pointsCache memoCache[pointsKey, *Points]
	rowsCache   memoCache[rowsKey, *Rows]
)

// CachedGraph returns the memoised graph for the given generator
// parameters, generating it on first use. The returned graph is shared:
// callers must treat it as immutable.
func CachedGraph(seed uint64, n int, avgDeg float64, skew float64) *Graph {
	k := graphKey{seed: seed, n: n, avgDeg: avgDeg, skew: skew}
	return graphCache.get(k, func() *Graph { return GenGraph(seed, n, avgDeg, skew) })
}

// CachedPoints returns the memoised labeled-point dataset for the given
// generator parameters. The returned dataset is shared and immutable.
func CachedPoints(seed uint64, n, dim int) *Points {
	k := pointsKey{seed: seed, n: n, dim: dim}
	return pointsCache.get(k, func() *Points { return GenPoints(seed, n, dim) })
}

// CachedRows returns the memoised relational dataset for the given
// generator parameters. The returned dataset is shared and immutable.
func CachedRows(seed uint64, n, k int) *Rows {
	key := rowsKey{seed: seed, n: n, k: k}
	return rowsCache.get(key, func() *Rows { return GenRows(seed, n, k) })
}

// ResetCaches drops all memoised datasets and zeroes the counters
// (tests; frees memory between unrelated suites).
func ResetCaches() {
	graphCache.reset()
	pointsCache.reset()
	rowsCache.reset()
}
