package experiments

import (
	"sync/atomic"

	"github.com/carv-repro/teraheap-go/internal/fault"
)

// RunContext carries the cross-cutting run configuration — heap
// verification, fault injection, the GC gang, the writeback queue and
// the executor's worker count — as one explicit value. The CLI builds it
// from its flags and passes it to every figure; figures hand it to
// RunAll, which runs each spec under it unless the spec carries its own.
// A nil context means the zero context: no verification, no faults,
// serial GC charge, no writeback queue, GOMAXPROCS workers.
//
// Contexts derived from one by copying (the worker-scaling figure's
// per-gang contexts, the chaos schedules' verified ones) share its
// failure counter, so the CLI's exit code sees every run. Two runs with
// different contexts execute concurrently without bleeding into each
// other. A RunContext must not be mutated after it is handed to a run.
type RunContext struct {
	// Verify registers the full-heap invariant verifier on the run's
	// runtime (the TH_VERIFY=1 environment variable achieves the same at
	// the collector level without going through a context).
	Verify bool
	// FaultPlan, when non-nil, injects faults into the run. The plan is
	// shared immutable configuration; each run builds its own
	// fault.Injector from it, so decisions depend only on that run's
	// operation stream — worker interleaving across parallel runs cannot
	// perturb them.
	FaultPlan *fault.Plan
	// GCWorkers sets the simulated GC gang size on PS-based runtimes
	// (rt.Spec.GCWorkers); 0 or 1 is the legacy serial charge.
	GCWorkers int
	// WritebackDepth enables the device's asynchronous writeback queue
	// (rt.Spec.WritebackDepth); 0 is the legacy flat discount.
	WritebackDepth int
	// Workers is the executor's worker count for RunAll (the CLI's -j);
	// 0 means GOMAXPROCS.
	Workers int

	// failures counts the runs RunAll executed under this context, or
	// under a copy of it, whose outcome differs from their declaration:
	// an undeclared OOM, a fault, a panic, or a declared OOM that did not
	// happen. Nil on a context that does not count (see Counting).
	failures *atomic.Int64
}

// Counting returns a copy of c that counts its failed runs: RunAll under
// the copy, or under any copy derived from it, adds each run whose
// outcome differs from its declaration (see SparkRun.ExpectOOM) to one
// shared counter, which Failures reads.
func (c RunContext) Counting() *RunContext {
	c.failures = new(atomic.Int64)
	return &c
}

// Failures returns the number of failed runs counted so far; 0 for a
// context that does not count.
func (c *RunContext) Failures() int64 {
	if c == nil || c.failures == nil {
		return 0
	}
	return c.failures.Load()
}

// tally counts r if its outcome differs from its declaration (an OOM
// when expectOOM is set, completion otherwise) and c counts failures.
func (c *RunContext) tally(r RunResult, expectOOM bool) {
	want := ""
	if expectOOM {
		want = "OOM"
	}
	if c.failures != nil && r.Status() != want {
		c.failures.Add(1)
	}
}

// or resolves a run's context field: c itself, or d when c is nil.
func (c *RunContext) or(d *RunContext) *RunContext {
	if c == nil {
		return d
	}
	return c
}

// orZero resolves a nil context to a fresh zero context.
func (c *RunContext) orZero() *RunContext {
	if c == nil {
		return &RunContext{}
	}
	return c
}
