package experiments

import (
	"errors"
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/runner"
)

// execute is the one run pipeline every simulated run goes through. It
// stamps ctx's cross-cutting settings onto the sized spec, builds the
// session, runs body, settles the writeback queue (residual service time
// belongs to the run that submitted it), and snapshots the clock, GC,
// device, TeraHeap, fault, recovery and placement stats into the result.
//
// A body error is classified: a latched persistent storage fault ends
// the run Faulted, an OOM (typed, or recorded by the runtime) ends it
// OOM, and anything else is a bug and panics. A device failure latched
// after the workload's last allocation (or on a runtime without
// collector-level polling, like the G1 baseline) still faults the run.
func execute(name string, spec rt.Spec, ctx *RunContext, body func(*rt.Session, *RunResult) error) RunResult {
	ctx = ctx.orZero()
	spec.Verify = ctx.Verify
	spec.FaultPlan = ctx.FaultPlan
	spec.GCWorkers = ctx.GCWorkers
	spec.WritebackDepth = ctx.WritebackDepth
	ses := rt.NewSession(spec)

	res := RunResult{Name: name}
	err := body(ses, &res)
	ses.Device.DrainWriteback()
	res.B = ses.Clock.Breakdown()
	res.GCStats = *ses.Runtime.GCStats()
	res.DevStats = ses.Device.Stats()
	if th := ses.TH; th != nil {
		s := th.Stats()
		res.THStats = &s
		res.PageFaults = th.Mapped().Cache().Faults
		res.FinalLowThreshold = th.LowThresholdNow()
	}
	res.FaultStats = ses.Injector.Stats()
	res.Recovery = ses.RecoveryStats()
	res.Placement = ses.PlacementStats()
	if err != nil {
		var oom *gc.OOMError
		var flt *gc.FaultError
		switch {
		case errors.As(err, &flt):
			res.Faulted = true
			res.FailErr = flt.Error()
		case errors.As(err, &oom) || ses.Runtime.OOM() != nil:
			res.OOM = true
		default:
			panic(fmt.Sprintf("experiments: %s failed: %v", name, err))
		}
	}
	if e := ses.Fault(); e != nil && !res.Faulted {
		res.Faulted = true
		res.FailErr = e.Error()
	}
	return res
}

// Spec is one submission to the parallel experiment executor: a tagged
// union over the three run kinds. Exactly one field must be set.
type Spec struct {
	Spark  *SparkRun
	Giraph *GiraphRun
	Serve  *ServeRun
}

// run executes the spec under its own context, or ctx when it has none.
// Every run is fully self-contained (own clock, heap, collector,
// devices), so specs may execute concurrently.
func (s Spec) run(ctx *RunContext) RunResult {
	switch {
	case s.Spark != nil:
		r := *s.Spark
		r.Ctx = r.Ctx.or(ctx)
		return RunSpark(r)
	case s.Giraph != nil:
		r := *s.Giraph
		r.Ctx = r.Ctx.or(ctx)
		return RunGiraph(r)
	case s.Serve != nil:
		r := *s.Serve
		r.Ctx = r.Ctx.or(ctx)
		return RunServe(r)
	}
	panic(fmt.Sprintf("experiments: empty Spec %+v", s))
}

// name is the spec's run name, the same one its runner mints; the
// executor reports a panicking run under it.
func (s Spec) name() string {
	switch {
	case s.Spark != nil:
		return s.Spark.name()
	case s.Giraph != nil:
		return s.Giraph.name()
	case s.Serve != nil:
		return s.Serve.name()
	}
	return "empty-spec"
}

// SparkSpec wraps a SparkRun as a Spec.
func SparkSpec(r SparkRun) Spec { return Spec{Spark: &r} }

// GiraphSpec wraps a GiraphRun as a Spec.
func GiraphSpec(r GiraphRun) Spec { return Spec{Giraph: &r} }

// RunAll executes the specs under ctx across ctx.Workers executor
// workers and returns results in submission order, so figure formatting
// over the result slice is byte-identical to serial execution. Runs
// that do not end as declared (SparkRun.ExpectOOM) are counted on ctx.
//
// A run that panics does not kill the suite: the executor recovers it into
// a failed-run result (name + error) in that run's slot, so the merged
// output stays deterministic and the remaining runs complete.
func RunAll(ctx *RunContext, specs []Spec) []RunResult {
	ctx = ctx.orZero()
	runs := runner.DoSafe(len(specs), ctx.Workers, func(i int) RunResult {
		return specs[i].run(ctx)
	}, func(i int, v any) RunResult {
		return RunResult{Name: specs[i].name(), Failed: true, FailErr: fmt.Sprint(v)}
	})
	for i, r := range runs {
		ctx.tally(r, specs[i].Spark != nil && specs[i].Spark.ExpectOOM)
	}
	return runs
}
