package main

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// refPageRank is graphx.PageRank over plain Go slices, with the same
// operation order, so its ranks match the simulated job's bit for bit.
func refPageRank(g *workloads.Graph, iters int) []float64 {
	n := g.N
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		contribs := make([]float64, n)
		for v, edges := range g.Adj {
			if len(edges) == 0 {
				continue
			}
			share := ranks[v] / float64(len(edges))
			for _, t := range edges {
				contribs[t] += share
			}
		}
		for v := range ranks {
			ranks[v] = 0.15/float64(n) + 0.85*contribs[v]
		}
	}
	return ranks
}

// refLinearRegression is mllib.LinearRegression over plain Go slices.
func refLinearRegression(p *workloads.Points, epochs int) []float64 {
	w := make([]float64, p.Dim)
	for e := 0; e < epochs; e++ {
		g := make([]float64, p.Dim)
		for i, x := range p.X {
			var pred float64
			for j := range w {
				pred += w[j] * x[j]
			}
			c := 2 * (pred - p.Labels[i])
			if c == 0 {
				continue
			}
			for j := range g {
				g[j] += c * x[j]
			}
		}
		for j := range w {
			w[j] -= 0.1 * g[j] / float64(p.N)
		}
	}
	return w
}

// expectedDigests returns each job's correct result digest for the
// inputs: the reference computation's, which at seed 0 must also equal
// the pinned digest.
func expectedDigests(in *inputs) (map[string]uint64, error) {
	want := map[string]uint64{}
	if in.graph != nil {
		want[jobPR.name] = digestFloats(refPageRank(in.graph, prIters))
	}
	if in.points != nil {
		want[jobLR.name] = digestFloats(refLinearRegression(in.points, lrEpochs))
	}
	if in.seed == 0 {
		for job, d := range want {
			if d != defaultDigests[job] {
				return nil, fmt.Errorf("%s reference digest %016x, pinned %016x", job, d, defaultDigests[job])
			}
		}
	}
	return want, nil
}

// checkRep marks every run of rep whose result digest is wrong as failed.
func checkRep(w *workload, rep *repStats, want map[string]uint64) {
	for i, r := range w.spark {
		rs := &rep.runs[i]
		if rs.failed == "" && rs.digest != want[r.job.name] {
			rs.failed = fmt.Sprintf("result digest %016x, want %016x", rs.digest, want[r.job.name])
		}
	}
}
