package experiments

import (
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// chaosTestPlan is an aggressive-but-survivable schedule: transient errors
// well under the retry budget, plus every degradation mode at a visible
// rate.
func chaosTestPlan(t *testing.T) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan("seed=1,dev-err=0.02,spike=0.01,brownout=4000:200,wb-fail=0.05,torn=0.05,h2-exhaust=0.02")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	return p
}

// TestChaosSurvivesFaultSchedule is the harness's core claim: under an
// aggressive fault plan with the verifier on, every run ends in a typed
// outcome — degraded, faulted, or OOM — and none panics.
func TestChaosSurvivesFaultSchedule(t *testing.T) {
	res := RunChaos(&RunContext{}, chaosTestPlan(t))
	if res.Panicked() {
		t.Fatalf("chaos run panicked:\n%s", res.Format())
	}
	if len(res.Runs) != len(chaosSpecs()) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(chaosSpecs()))
	}
	healthy, recovered, degraded, faulted, oom, panicked := res.Counts()
	if healthy+recovered+degraded+faulted+oom+panicked != len(res.Runs) {
		t.Fatalf("outcome buckets don't partition the runs: %d+%d+%d+%d+%d+%d != %d",
			healthy, recovered, degraded, faulted, oom, panicked, len(res.Runs))
	}
	// The plan injects at visible rates into I/O-heavy runs: at least one
	// run must have absorbed faults (degraded or worse) or the plane is
	// not actually wired in.
	anyInjected := false
	for _, run := range res.Runs {
		if run.FaultStats.Any() {
			anyInjected = true
		}
	}
	if !anyInjected {
		t.Fatalf("no run recorded injected faults:\n%s", res.Format())
	}
	if !strings.Contains(res.Format(), "verifier on") {
		t.Fatalf("report missing verifier marker:\n%s", res.Format())
	}
}

// TestChaosSameSeedIsDeterministic runs the schedule twice under the same
// plan and requires byte-identical reports.
func TestChaosSameSeedIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full chaos schedules in -short mode")
	}
	plan := chaosTestPlan(t)
	a := RunChaos(&RunContext{}, plan).Format()
	b := RunChaos(&RunContext{}, plan).Format()
	if a != b {
		t.Fatalf("same-seed chaos reports differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestChaosGlobalsRestored checks RunChaos leaves the caller's context
// the way it found it: the verified, faulted context the schedule runs
// under is a copy.
func TestChaosGlobalsRestored(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos schedule in -short mode")
	}
	ctx := &RunContext{GCWorkers: 2, WritebackDepth: 4}
	RunChaos(ctx, chaosTestPlan(t))
	if *ctx != (RunContext{GCWorkers: 2, WritebackDepth: 4}) {
		t.Errorf("RunChaos modified the caller's context: %+v", *ctx)
	}
}

// TestChaosContextInheritsGang pins that the chaos schedules run under
// the caller's gang size: the first chaos spec (PR/spark-sd/80GB) at a
// 4-worker gang must charge different GC time than at the serial one.
func TestChaosContextInheritsGang(t *testing.T) {
	spec := []Spec{chaosSpecs()[0]}
	serial := RunAll(chaosContext(&RunContext{}, nil), spec)[0]
	gang := RunAll(chaosContext(&RunContext{GCWorkers: 4}, nil), spec)[0]
	if serial.Name != "PR/spark-sd/80GB" {
		t.Fatalf("first chaos spec is %s, want PR/spark-sd/80GB", serial.Name)
	}
	if serial.B.Get(simclock.MajorGC) == gang.B.Get(simclock.MajorGC) &&
		serial.B.Get(simclock.MinorGC) == gang.B.Get(simclock.MinorGC) {
		t.Errorf("GC time identical at gang 1 and 4 (major %v, minor %v): the chaos context dropped GCWorkers",
			gang.B.Get(simclock.MajorGC), gang.B.Get(simclock.MinorGC))
	}
}

// TestChaosRecoversFromPersistentRegionFailure is the self-healing layer's
// end-to-end claim: a persistent-failure plan that pre-recovery ended runs
// Faulted now completes every run, marks the TeraHeap runs Recovered, and
// — because failed regions stay readable and salvage remaps every
// reference — produces exactly the checksums of a fault-free execution.
func TestChaosRecoversFromPersistentRegionFailure(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos schedules: skipped in -short mode and under the race detector (deterministic-replay property, no concurrency; the package would exceed the default test timeout)")
	}
	plan, err := fault.ParsePlan("seed=1,region-fail=0.02")
	if err != nil {
		t.Fatal(err)
	}
	res := RunChaos(&RunContext{}, plan)
	if res.Panicked() {
		t.Fatalf("chaos run panicked:\n%s", res.Format())
	}
	_, recovered, _, faulted, oom, _ := res.Counts()
	if faulted != 0 || oom != 0 {
		t.Fatalf("faulted=%d oom=%d under a survivable plan, want 0/0:\n%s", faulted, oom, res.Format())
	}
	if recovered == 0 {
		t.Fatalf("no run recovered under a persistent region-failure plan:\n%s", res.Format())
	}
	base := RunChaos(&RunContext{}, nil)
	for i, run := range res.Runs {
		if run.Checksum != base.Runs[i].Checksum {
			t.Errorf("%s: checksum %g after salvage != fault-free %g — recovery changed the answer",
				run.Name, run.Checksum, base.Runs[i].Checksum)
		}
	}
	for _, run := range res.Runs {
		if run.Recovered() && (run.Recovery.RegionsQuarantined == 0 || run.Recovery.SalvagedObjects == 0) {
			t.Errorf("%s marked recovered without salvage activity: %s", run.Name, run.Recovery)
		}
	}
}

// Panicked reports whether any run died by panic — the one outcome the
// chaos harness treats as a bug.
func (r ChaosResult) Panicked() bool {
	_, _, _, _, _, panicked := r.Counts()
	return panicked > 0
}
