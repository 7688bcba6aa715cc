package simclock

import (
	"fmt"
	"math"
	"time"
)

// ChargeError reports a number of seconds that is not a valid positive
// duration.
type ChargeError struct {
	V float64 // the rejected number of seconds
}

func (e *ChargeError) Error() string {
	return fmt.Sprintf("simclock: DurationFromSeconds: invalid duration from %v seconds", e.V)
}

// DurationFromSeconds converts a scalar number of seconds into a
// duration, rejecting NaN, infinities, non-positive values, values that
// overflow int64 nanoseconds, and sub-nanosecond values that would
// silently truncate to a zero duration. Rate and deadline knobs parsed
// from text go through this single guard so a malformed config can never
// charge a negative, zero, or NaN-derived duration to the clock.
func DurationFromSeconds(sec float64) (time.Duration, error) {
	ns := sec * float64(time.Second)
	// NaN fails both comparisons; the bounds exclude zero, negatives,
	// infinities, overflow, and sub-nanosecond truncation in one test.
	if !(ns >= 1 && ns <= float64(math.MaxInt64)) {
		return 0, &ChargeError{V: sec}
	}
	return time.Duration(ns), nil
}
