package experiments

import (
	"strings"
	"sync"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/giraph"
	"github.com/carv-repro/teraheap-go/internal/rt"
)

// bleedTestPlan injects at rates high enough that a short TeraHeap run is
// guaranteed to record injected faults if (and only if) the plan is
// actually wired into it.
func bleedTestPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan("seed=5,dev-err=0.02,spike=0.05,wb-fail=0.1,torn=0.1")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	return p
}

// TestRunContextNoBleed is the config-bleed regression test: runs with a
// scoped verified+faulted context and runs that inherit RunAll's zero
// context execute concurrently under a 4-worker pool, and neither picks
// up the other's settings — the faulted runs record injected faults, the
// inheriting runs record none.
func TestRunContextNoBleed(t *testing.T) {
	ctx := &RunContext{Verify: true, FaultPlan: bleedTestPlan(t)}
	mk := func(c *RunContext) Spec {
		return SparkSpec(SparkRun{Workload: "PR", Runtime: rt.KindTH, DramGB: 80,
			DatasetScale: 0.05, Ctx: c})
	}
	// Interleave scoped and inheriting runs so the pool runs both kinds
	// at once.
	specs := []Spec{mk(ctx), mk(nil), mk(ctx), mk(nil)}
	runs := RunAll(&RunContext{Workers: 4}, specs)

	for i, run := range runs {
		scoped := i%2 == 0
		if run.Failed {
			t.Fatalf("run %d (%s) panicked: %s", i, run.Name, run.FailErr)
		}
		if scoped && !run.FaultStats.Any() {
			t.Errorf("run %d (%s): scoped faulted context injected nothing: %s",
				i, run.Name, run.FaultStats.String())
		}
		if !scoped && run.FaultStats.Any() {
			t.Errorf("run %d (%s): inheriting run absorbed the scoped run's fault plan: %s",
				i, run.Name, run.FaultStats.String())
		}
	}
	// Identical scoped runs must make identical fault decisions regardless
	// of worker interleaving.
	if runs[0].FaultStats != runs[2].FaultStats {
		t.Errorf("same-plan runs diverged: %s vs %s",
			runs[0].FaultStats.String(), runs[2].FaultStats.String())
	}
}

// TestRunContextCountsFailures pins the exit-code counter: RunAll counts
// failed runs on a counting context and on every copy derived from it,
// from several goroutines at once, and a context built as a literal
// counts nothing.
func TestRunContextCountsFailures(t *testing.T) {
	bad := SparkSpec(SparkRun{Workload: "BOGUS", Runtime: rt.KindPS, DramGB: 80})
	ctx := RunContext{Workers: 2}.Counting()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		derived := *ctx
		derived.GCWorkers = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunAll(&derived, []Spec{bad, bad})
		}()
	}
	RunAll(ctx, []Spec{bad})
	wg.Wait()
	if got := ctx.Failures(); got != 9 {
		t.Errorf("Failures() = %d after 9 panicking runs, want 9", got)
	}
	literal := &RunContext{}
	RunAll(literal, []Spec{bad})
	if got := literal.Failures(); got != 0 {
		t.Errorf("a literal context counted %d failures, want 0", got)
	}
}

// TestPanickingRunKeepsItsName: a run that panics is reported under the
// name its runner would have minted — for Giraph, including the mode.
func TestPanickingRunKeepsItsName(t *testing.T) {
	runs := RunAll(&RunContext{}, []Spec{
		GiraphSpec(GiraphRun{Workload: "X", Mode: giraph.ModeTH, DramGB: 74}),
		GiraphSpec(GiraphRun{Workload: "X", Mode: giraph.ModeOOC, DramGB: 74}),
		SparkSpec(SparkRun{Workload: "X", Runtime: rt.KindTH, DramGB: 32}),
		{Serve: &ServeRun{Kind: rt.Kind(99)}},
	})
	want := []string{"X/th/74GB", "X/ooc/74GB", "X/th/32GB", "serve/Kind(99)/56GB/r0k"}
	for i, run := range runs {
		if !run.Failed {
			t.Errorf("run %d (%s) did not fail", i, run.Name)
		}
		if run.Name != want[i] {
			t.Errorf("run %d: failed result named %q, want %q", i, run.Name, want[i])
		}
	}
	if !strings.Contains(runs[0].FailErr, `unknown Giraph workload "X"`) {
		t.Errorf("failed Giraph run lost its cause: %q", runs[0].FailErr)
	}
}

// TestTallyCountsOutcomesAgainstDeclarations pins the failure count's
// rule: a run counts when its outcome differs from its declaration, so a
// declared OOM counts only when it does not happen.
func TestTallyCountsOutcomesAgainstDeclarations(t *testing.T) {
	cases := []struct {
		r         RunResult
		expectOOM bool
		counts    bool
	}{
		{RunResult{}, false, false},
		{RunResult{OOM: true}, false, true},
		{RunResult{OOM: true}, true, false},
		{RunResult{}, true, true},
		{RunResult{Faulted: true}, true, true},
		{RunResult{Faulted: true}, false, true},
		{RunResult{Failed: true}, false, true},
	}
	for _, c := range cases {
		ctx := RunContext{}.Counting()
		ctx.tally(c.r, c.expectOOM)
		if got := ctx.Failures() == 1; got != c.counts {
			t.Errorf("%+v declared OOM=%v: counted %v, want %v", c.r, c.expectOOM, got, c.counts)
		}
	}
}

// TestFig6DeclaresThePaperOOMBars pins the 12 Spark-SD OOM bars of
// Figure 6 on the run specs, all on the smallest DRAM points.
func TestFig6DeclaresThePaperOOMBars(t *testing.T) {
	n := 0
	for _, w := range SparkWorkloads() {
		for i, s := range Fig6SparkSpecs(w) {
			if !s.Spark.ExpectOOM {
				continue
			}
			n++
			if s.Spark.Runtime != rt.KindPS || s.Spark.DramGB != sparkSpecs[w].sdDramGB[i] {
				t.Errorf("%s: OOM declared on %s", w, s.Spark.name())
			}
		}
	}
	if n != 12 {
		t.Errorf("%d declared OOM bars, want 12", n)
	}
}
