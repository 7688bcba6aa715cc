package simclock

import "time"

// Sum returns the total CPU across all workers (the serial-equivalent
// work).
func (s *Spans) Sum() time.Duration {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return time.Duration(t)
}

// Reset zeroes all accumulated time (context is preserved).
func (c *Clock) Reset() { c.ns = [numCategories]int64{} }
