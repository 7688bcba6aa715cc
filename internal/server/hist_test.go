package server

import (
	"testing"
	"time"
)

func TestHistPercentiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	if got := h.Max(); got != 1000*time.Microsecond {
		t.Errorf("Max = %v, want 1ms", got)
	}
	p50, p99, p999 := h.Percentile(0.50), h.Percentile(0.99), h.Percentile(0.999)
	if !(p50 <= p99 && p99 <= p999 && p999 <= h.Max()) {
		t.Errorf("percentiles not monotone: p50=%v p99=%v p999=%v max=%v", p50, p99, p999, h.Max())
	}
	// Log-linear buckets with 32 sub-buckets per octave are within ~3.2%
	// below the true value; allow 5%.
	if true50 := 500 * time.Microsecond; p50 > true50 || p50 < true50*95/100 {
		t.Errorf("p50 = %v, want within 5%% below %v", p50, true50)
	}
	if h.Percentile(1) != h.Max() {
		t.Errorf("Percentile(1) = %v, want exact max %v", h.Percentile(1), h.Max())
	}
}

func TestHistEdgeCases(t *testing.T) {
	var h Hist
	if got := h.Percentile(0.99); got != 0 {
		t.Errorf("empty histogram Percentile = %v, want 0", got)
	}
	h.Record(-5 * time.Second) // clamps, never a negative bucket
	h.Record(0)
	h.Record(200 * time.Hour) // far past the top octave: clamps to last bucket
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Percentile(0.999) > h.Max() {
		t.Errorf("percentile exceeds max: %v > %v", h.Percentile(0.999), h.Max())
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n }
