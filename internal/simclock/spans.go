package simclock

import "time"

// Spans accumulates per-worker virtual-time spans for one gang-parallel
// phase. The collector attributes each work item's CPU cost to one worker;
// the phase's pause contribution is then Max() — the longest worker span —
// instead of the serial sum, which is how a simulated gang of N workers
// shortens a pause without running goroutines (the clock stays
// single-threaded and deterministic).
//
// The backing array is reused across Reset calls, so a steady-state GC
// cycle performs no allocation once the span set has grown to its gang
// size.
type Spans struct {
	ns []int64
}

// Reset clears the spans and sizes the set for n workers (n < 1 is
// treated as 1).
func (s *Spans) Reset(n int) {
	if n < 1 {
		n = 1
	}
	if cap(s.ns) < n {
		s.ns = make([]int64, n)
		return
	}
	s.ns = s.ns[:n]
	for i := range s.ns {
		s.ns[i] = 0
	}
}

// Workers returns the number of workers in the span set.
func (s *Spans) Workers() int { return len(s.ns) }

// Add charges d to worker w's span. Negative charges are ignored,
// mirroring Clock.Charge.
func (s *Spans) Add(w int, d time.Duration) {
	if d > 0 {
		s.ns[w] += int64(d)
	}
}

// Get returns worker w's accumulated span.
func (s *Spans) Get(w int) time.Duration { return time.Duration(s.ns[w]) }

// Max returns the longest worker span: the phase's duration under
// max-over-workers charging. A one-worker span set degenerates to Sum, so
// gang charging with one worker is exactly serial charging.
func (s *Spans) Max() time.Duration {
	var m int64
	for _, v := range s.ns {
		if v > m {
			m = v
		}
	}
	return time.Duration(m)
}
