// Command perfbench is the repository benchmark. It runs one named
// workload of simulated runs (Spark jobs under Spark-SD or TeraHeap, or
// the key-value request plane) repeatedly for a fixed host-time budget,
// checks every run's output, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics — as one JSON object on the last line
// of standard output. README.md lists the workloads and metrics.
//
//	go run . -workload spark-th -seed 0 -seconds 20 -trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "input seed (0 reproduces the paper-figure inputs)")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return names
}

// measure sets the workload up, runs it for budget, checks the outputs
// and collects the metrics. A traced measurement spends half the budget
// untraced and half traced, to report the tracing overhead.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	in, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	want, err := expectedDigests(in)
	if err != nil {
		return nil, err
	}

	var plain, tracedReps []repStats
	var tr *tracer
	if traced {
		if plain, err = repeat(w, seed, want, budget/2, nil); err != nil {
			return nil, err
		}
		tr = &tracer{}
		if err := tr.start(); err != nil {
			return nil, err
		}
		tracedReps, err = repeat(w, seed, want, budget-budget/2, tr)
		tr.stop()
	} else {
		plain, err = repeat(w, seed, want, budget, nil)
	}
	if err != nil {
		return nil, err
	}

	res := &result{correct: true, metrics: map[string]metric{}}
	all := append(append([]repStats(nil), plain...), tracedReps...)
	first := all[0]
	firstDigest := first.simDigest()
	for i := range all {
		for _, r := range all[i].runs {
			res.attempted++
			if r.failed != "" {
				res.failed++
				res.correct = false
				fmt.Fprintf(log, "FAILED %s (repetition %d): %s\n", r.name, i, r.failed)
			}
		}
		if d := all[i].simDigest(); d != firstDigest {
			res.correct = false
			fmt.Fprintf(log, "MISMATCH repetition %d: simulated statistics digest %016x, first %016x\n", i, d, firstDigest)
		}
	}
	report(log, w, seed, first, len(plain), len(tracedReps))

	if traced {
		if err := tr.metrics(res, plain, tracedReps); err != nil {
			return nil, err
		}
		simLayerMetrics(res, first)
	} else {
		endToEnd(res, w, first, plain)
	}
	return res, nil
}

// repeat sets up, runs and checks whole repetitions until budget has
// passed (at least one). Each repetition sets its inputs up afresh, so
// setup_s samples the same stretch of host time as wall_s. Each starts
// from a collected host heap whose free pages are returned to the system
// (see runRep), so its resident peak is its own and not that of an
// earlier repetition.
func repeat(w *workload, seed uint64, want map[string]uint64, budget time.Duration, tr *tracer) ([]repStats, error) {
	start := time.Now()
	var reps []repStats
	for len(reps) == 0 || time.Since(start) < budget {
		debug.FreeOSMemory()
		stopRSS := sampleRSS(rssEvery)
		setupStart := time.Now()
		in, err := w.setup(seed)
		if err != nil {
			stopRSS()
			return nil, err
		}
		setup := time.Since(setupStart)
		if tr != nil {
			tr.beginRep()
		}
		rep := w.runRep(in, tr)
		if tr != nil {
			tr.endRep()
		}
		rep.peakRSS = stopRSS()
		rep.setup = setup
		checkRep(w, &rep, want)
		reps = append(reps, rep)
	}
	return reps, nil
}

// report prints the human-readable summary that precedes the JSON line.
func report(log io.Writer, w *workload, seed uint64, first repStats, plain, traced int) {
	fmt.Fprintf(log, "workload %s seed %d: %d untraced + %d traced repetitions\n", w.name, seed, plain, traced)
	for _, r := range first.runs {
		fmt.Fprintf(log, "  %-20s sim %-12v", r.name, r.B.Total())
		if r.Serve == nil {
			fmt.Fprintf(log, " result-digest %016x", r.digest)
		} else {
			fmt.Fprintf(log, " p99 %v p999 %v shed %d", r.Serve.P99, r.Serve.P999, r.Serve.Shed)
		}
		fmt.Fprintln(log)
	}
	fmt.Fprintf(log, "sim-digest %s seed %d %016x\n", w.name, seed, first.simDigest())
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds lists one duration of each repetition in seconds.
func seconds(reps []repStats, of func(repStats) time.Duration) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = of(r).Seconds()
	}
	return out
}

// peakRSSMBs lists the resident peak of each repetition in MB.
func peakRSSMBs(reps []repStats) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = mb(r.peakRSS)
	}
	return out
}

func wallOf(r repStats) time.Duration  { return r.wall }
func setupOf(r repStats) time.Duration { return r.setup }
