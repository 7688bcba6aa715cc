package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/experiments"
)

// TestPaperConfigurations pins the Spark workloads to the paper figure:
// at seed 0 each run's simulated breakdown equals experiments.RunSpark's
// for the same fig6-spark row, and every result digest is the pinned one,
// under Spark-SD and TeraHeap alike.
func TestPaperConfigurations(t *testing.T) {
	for _, name := range []string{"spark-sd", "spark-th"} {
		w, _ := workloadByName(name)
		in, err := w.setup(0)
		if err != nil {
			t.Fatal(err)
		}
		rep := w.runRep(in, nil)
		for i, r := range w.spark {
			got := rep.runs[i]
			if got.failed != "" {
				t.Fatalf("%s failed: %s", got.name, got.failed)
			}
			want := experiments.RunSpark(experiments.SparkRun{Workload: r.job.name, Runtime: r.kind, DramGB: r.dramGB})
			if got.name != want.Name {
				t.Errorf("run %q, fig6-spark row %q", got.name, want.Name)
			}
			if got.B != want.B {
				t.Errorf("%s: breakdown %v, RunSpark %v", got.name, got.B.NS, want.B.NS)
			}
			if got.digest != defaultDigests[r.job.name] {
				t.Errorf("%s: result digest %016x, pinned %016x", got.name, got.digest, defaultDigests[r.job.name])
			}
		}
	}
}

// TestReferenceDigests checks the plain-Go reference computations against
// the pinned digests, and that another seed gives other inputs.
func TestReferenceDigests(t *testing.T) {
	w, _ := workloadByName("spark-sd")
	for _, seed := range []uint64{0, 1} {
		in, err := w.setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := expectedDigests(in)
		if err != nil {
			t.Fatal(err)
		}
		for job, d := range want {
			if pinned := defaultDigests[job] == d; pinned != (seed == 0) {
				t.Errorf("seed %d %s: digest %016x, pinned %016x", seed, job, d, defaultDigests[job])
			}
		}
	}
}

// TestSecondSeed runs every workload once at a seed other than the
// default: nothing may fail, and the metrics must be exactly the ones
// BENCHMARK.json declares.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	decl := declaredMetrics(t)
	for _, w := range benchWorkloads {
		res, err := measure(&w, 7, time.Millisecond, false, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.correct, res.attempted, res.failed)
		}
		if v := res.metrics["pass_frac"].Value; v != 1 {
			t.Errorf("%s: pass_frac %v", w.name, v)
		}
		for name, m := range res.metrics {
			if m.Value == 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: end-to-end metric %s is %v", w.name, name, m.Value)
			}
		}
		checkNames(t, w.name, res.metrics, decl.EndToEnd)
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric,
// that tracing leaves the simulation untouched (measure compares the
// traced repetitions' statistics with the untraced ones), and that the
// host profile attributes samples to the simulator's layers.
func TestTracedRun(t *testing.T) {
	decl := declaredMetrics(t)
	w, _ := workloadByName("spark-th")
	res, err := measure(w, 0, 2*time.Second, true, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.correct, res.failed)
	}
	checkNames(t, w.name, res.metrics, decl.PerLayer)
	if res.metrics["host.samples"].Value == 0 {
		t.Error("CPU profile has no samples")
	}
	if res.metrics["gc.major_count"].Value != 0 || res.metrics["gc.major_ms"].Value != 0 {
		t.Error("spark-th ran a major GC")
	}
	var layers float64
	for _, g := range profileGroups {
		layers += res.metrics["host."+g+"_pct"].Value
	}
	if layers <= 0 || layers > 100.0001 {
		t.Errorf("host shares sum to %v%%", layers)
	}
}

type declared struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func declaredMetrics(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func checkNames(t *testing.T, workload string, got map[string]metric, want []struct{ Name string }) {
	t.Helper()
	var g, w []string
	for name := range got {
		g = append(g, name)
	}
	for _, m := range want {
		w = append(w, m.Name)
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s reports\n  %v\nBENCHMARK.json declares\n  %v", workload, g, w)
	}
}

func TestProbeWait(t *testing.T) {
	ns := func(xs ...int64) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x))
		}
		return out
	}
	for _, c := range []struct {
		pauses []time.Duration
		total  time.Duration
		q      float64
		want   time.Duration
	}{
		{ns(10), 100, 0.99, 9},   // P(wait > x) = (10-x)/100
		{ns(10), 100, 0.95, 5},   // (10-5)/100 = 0.05
		{ns(10), 100, 0.8, 0},    // only 10% of arrivals wait at all
		{ns(4, 10), 100, 0.9, 2}, // (10-2)+(4-2) = 10
		{nil, 100, 0.99, 0},
	} {
		if got := probeWait(c.pauses, c.total, c.q); got != c.want {
			t.Errorf("probeWait(%v, %v, %v) = %v, want %v", c.pauses, c.total, c.q, got, c.want)
		}
	}
}

func TestProfileShares(t *testing.T) {
	if got := profileGroup("github.com/carv-repro/teraheap-go/internal/vm.(*AddressSpace).Load"); got != "vm" {
		t.Errorf("vm method grouped as %q", got)
	}
	if got := profileGroup("runtime.mallocgc"); got != "goruntime" {
		t.Errorf("runtime function grouped as %q", got)
	}
	if got := profileGroup("sort.Sort"); got != "other" {
		t.Errorf("stdlib function grouped as %q", got)
	}

	var buf strings.Builder
	var prof = &tracer{}
	if err := pprof.StartCPUProfile(&prof.prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		buf.WriteString(strings.Repeat("x", 64))
		if buf.Len() > 1<<20 {
			buf.Reset()
		}
	}
	prof.stop()
	counts, total, err := profileShares(prof.prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if total == 0 || sum != total {
		t.Errorf("total %d samples, groups sum to %d", total, sum)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "spark-sd", "--seconds", "0"},
		{"--workload", "spark-sd", "--trace", "2"},
		{"--workload", "spark-sd", "--seed", "-1"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
