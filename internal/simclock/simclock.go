// Package simclock provides the virtual time base for the TeraHeap
// simulator. Every simulated action (mutator compute, serialization,
// device I/O, garbage collection) charges nanoseconds to one of four
// categories, matching the execution-time breakdown reported in the
// paper's evaluation: Other, S/D+I/O, Minor GC, and Major GC.
//
// The clock is single-threaded and deterministic: simulated parallelism
// is expressed by dividing charges, not by running goroutines, so two
// runs of the same experiment always produce identical breakdowns.
package simclock

import (
	"fmt"
	"time"
)

// Category identifies which breakdown bucket a charge belongs to.
type Category int

// Breakdown categories, mirroring Figure 6's legend.
const (
	Other    Category = iota // mutator compute, incl. H2 page-fault wait
	SerDesIO                 // serialization/deserialization and off-heap I/O
	MinorGC                  // young-generation collections
	MajorGC                  // full collections (incl. H2 promotion I/O)
	numCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Other:
		return "Other"
	case SerDesIO:
		return "S/D + I/O"
	case MinorGC:
		return "Minor GC"
	case MajorGC:
		return "Major GC"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Breakdown is a snapshot of accumulated time per category.
type Breakdown struct {
	NS [4]int64 // indexed by Category
}

// Total returns the end-to-end simulated execution time.
func (b Breakdown) Total() time.Duration {
	var t int64
	for _, v := range b.NS {
		t += v
	}
	return time.Duration(t)
}

// Get returns the time charged to category c.
func (b Breakdown) Get(c Category) time.Duration { return time.Duration(b.NS[c]) }

// Sub returns the per-category difference b - prev.
func (b Breakdown) Sub(prev Breakdown) Breakdown {
	var d Breakdown
	for i := range b.NS {
		d.NS[i] = b.NS[i] - prev.NS[i]
	}
	return d
}

// String renders the breakdown in a compact single line.
func (b Breakdown) String() string {
	return fmt.Sprintf("total=%v other=%v sd+io=%v minor=%v major=%v",
		b.Total(), b.Get(Other), b.Get(SerDesIO), b.Get(MinorGC), b.Get(MajorGC))
}

// Clock accumulates virtual time. The zero value is ready to use and
// charges to Other until SetContext changes the ambient category.
type Clock struct {
	ns      [numCategories]int64
	context Category
}

// New returns a fresh clock charging to Other by default.
func New() *Clock { return &Clock{} }

// SetContext sets the ambient category used by ChargeAmbient and by
// components (such as storage devices) that charge without knowing which
// phase invoked them. It returns the previous context so callers can
// restore it with defer.
func (c *Clock) SetContext(cat Category) Category {
	prev := c.context
	c.context = cat
	return prev
}

// Charge adds d to category cat. Negative charges are ignored.
func (c *Clock) Charge(cat Category, d time.Duration) {
	if d > 0 {
		c.ns[cat] += int64(d)
	}
}

// ChargeAmbient adds d to the ambient category.
func (c *Clock) ChargeAmbient(d time.Duration) { c.Charge(c.context, d) }

// Now returns total elapsed virtual time.
func (c *Clock) Now() time.Duration {
	var t int64
	for _, v := range c.ns {
		t += v
	}
	return time.Duration(t)
}

// Breakdown returns a snapshot of the per-category totals.
func (c *Clock) Breakdown() Breakdown {
	var b Breakdown
	for i := 0; i < int(numCategories); i++ {
		b.NS[i] = c.ns[i]
	}
	return b
}
