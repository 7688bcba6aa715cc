package server

import (
	"math/bits"
	"time"
)

// histSubBits gives 32 sub-buckets per power-of-two octave: ~3% relative
// resolution, enough for p50/p99/p999 on µs..s latencies while keeping
// the histogram a fixed small array (no allocation per sample).
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = histSub + (63-histSubBits)*histSub
)

// Hist is a deterministic log-linear latency histogram. Values below one
// octave record exactly; above, each octave splits into 32 linear
// sub-buckets and quantiles report the bucket's lower bound — a stable
// underestimate, so two runs with identical samples always print
// identical percentiles.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	max    time.Duration
}

func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	hi := bits.Len64(uint64(v)) - 1
	sub := int((v >> (uint(hi) - histSubBits)) & (histSub - 1))
	return histSub + (hi-histSubBits)*histSub + sub
}

func histLowerBound(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	oct := (idx-histSub)/histSub + histSubBits
	sub := int64((idx - histSub) % histSub)
	return int64(1)<<uint(oct) + sub<<(uint(oct)-histSubBits)
}

// Record adds one latency sample (negative samples clamp to zero).
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(int64(d))]++
	h.n++
	if d > h.max {
		h.max = d
	}
}

// Max returns the exact largest sample.
func (h *Hist) Max() time.Duration { return h.max }

// Percentile returns the p-quantile (p in [0,1]) as the lower bound of
// the bucket holding the target sample; p >= 1 returns the exact max.
func (h *Hist) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if p >= 1 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	target := int64(p*float64(h.n)) + 1
	if target > h.n {
		target = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			lb := histLowerBound(i)
			if time.Duration(lb) > h.max {
				return h.max
			}
			return time.Duration(lb)
		}
	}
	return h.max
}
