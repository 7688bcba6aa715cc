package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/carv-repro/teraheap-go/internal/experiments"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/mllib"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// seedStride separates the dataset seeds of consecutive benchmark seeds.
// Benchmark seed 0 maps every job onto the seed the paper figures use.
const seedStride = 1000

// sparkJob is one Table 3 Spark job, sized as experiments.RunSpark sizes it.
type sparkJob struct {
	name      string // fig6-spark row prefix
	datasetGB float64
	thH1Frac  float64
	hugePages bool
	baseSeed  uint64 // dataset seed of the fig6-spark runs
}

var (
	jobPR = sparkJob{name: "PR", datasetGB: 80, thH1Frac: 0.8, baseSeed: 101}
	jobLR = sparkJob{name: "LR", datasetGB: 70, thH1Frac: 0.77, hugePages: true, baseSeed: 106}
)

// Iteration counts of the fig6-spark PageRank and linear-regression runs.
const (
	prIters  = 10
	lrEpochs = 12
	parts    = 128
)

// defaultDigests pins each job's result at benchmark seed 0: the FNV-64a
// hash of the PageRank ranks and of the LR weights, bit for bit.
var defaultDigests = map[string]uint64{
	"PR": 0x46fb296fbb459ca3,
	"LR": 0x33ec4ee26f248649,
}

// sparkRun is one simulated Spark configuration.
type sparkRun struct {
	job    *sparkJob
	kind   rt.Kind
	dramGB float64
}

// name is the run's fig6-spark row label.
func (r sparkRun) name() string {
	return fmt.Sprintf("%s/%s/%.0fGB", r.job.name, r.kind.SparkLabel(), r.dramGB)
}

// serveRun is one simulated request-plane configuration.
type serveRun struct {
	rate float64
}

func (r serveRun) name() string { return fmt.Sprintf("serve/th/r%gk", r.rate/1000) }

// serveRequests is a serve run's request count: enough that one run takes
// host-seconds.
const serveRequests = 400000

// workload is one named benchmark workload: a list of runs executed one
// after another on inputs generated from the seed.
type workload struct {
	name  string
	spark []sparkRun
	serve []serveRun
}

var benchWorkloads = []workload{
	{name: "spark-sd", spark: []sparkRun{
		{job: &jobPR, kind: rt.KindPS, dramGB: 48},
		{job: &jobLR, kind: rt.KindPS, dramGB: 70},
	}},
	{name: "spark-th", spark: []sparkRun{
		{job: &jobPR, kind: rt.KindTH, dramGB: 32},
		{job: &jobLR, kind: rt.KindTH, dramGB: 43},
	}},
	{name: "serve-kv", serve: []serveRun{{rate: 60000}, {rate: 180000}}},
}

func workloadByName(name string) (*workload, bool) {
	for i := range benchWorkloads {
		if benchWorkloads[i].name == name {
			return &benchWorkloads[i], true
		}
	}
	return nil, false
}

// inputs are a workload's generated datasets.
type inputs struct {
	seed   uint64
	graph  *workloads.Graph
	points *workloads.Points
	serve  []server.Config
}

// datasetSeed maps a benchmark seed onto a job's generator seed.
func datasetSeed(base, seed uint64) uint64 { return base + seedStride*seed }

// setup generates the workload's inputs from seed, sized exactly as the
// fig6-spark runs size them. The serve configs are validated and the
// request plane is warmed with one short run per rate.
func (w *workload) setup(seed uint64) (*inputs, error) {
	in := &inputs{seed: seed}
	if len(w.spark) > 0 { // both Spark workloads run both jobs
		edges := experiments.GB(jobPR.datasetGB) / 16 // 8-byte edge word plus headers and ids
		in.graph = workloads.GenGraph(datasetSeed(jobPR.baseSeed, seed), int(edges/8), 8, 0.8)
		in.points = workloads.GenPoints(datasetSeed(jobLR.baseSeed, seed), int(experiments.GB(jobLR.datasetGB)/112), 10)
	}
	for _, r := range w.serve {
		cfg := server.DefaultConfig()
		cfg.Seed = datasetSeed(cfg.Seed, seed)
		cfg.RatePerSec = r.rate
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", r.name(), err)
		}
		warm := cfg // DefaultConfig's request count: a short warm-up run
		if _, err := server.Run(newServeSession(warm), warm); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", r.name(), err)
		}
		cfg.Requests = serveRequests
		in.serve = append(in.serve, cfg)
	}
	return in, nil
}

// runStats is one simulated run's outcome.
type runStats struct {
	name   string
	failed string // non-empty when the run failed, with the cause
	digest uint64 // result digest (Spark runs)

	B     simclock.Breakdown
	GC    gc.Stats
	Dev   storage.Stats
	TH    *thStats
	Serve *server.Stats
}

// thStats snapshots the second heap's counters.
type thStats struct {
	Moved, RegionsAlloc, RegionsReclaimed, CardsScanned int64
	PageFaults, SeqFaults                               int64
}

// repStats is one repetition of a workload: its runs, in order, and the
// host time of its set-up and of its runs.
type repStats struct {
	runs        []runStats
	setup, wall time.Duration
	peakRSS     int64 // resident bytes at the repetition's peak, set-up included
}

// timed runs fn and, when tracing, adds its host duration to layer.
func timed(t *tracer, layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.span(layer, time.Since(start))
}

// runRep executes every run of the workload once. Each run, like each
// set-up, starts from a collected host heap, so none pays for the garbage
// of what ran before; wall sums the runs' host time, without those
// collections.
func (w *workload) runRep(in *inputs, t *tracer) repStats {
	var rep repStats
	add := func(name string, fn func() runStats) {
		runtime.GC()
		start := time.Now()
		rep.runs = append(rep.runs, guard(name, fn))
		rep.wall += time.Since(start)
	}
	for _, r := range w.spark {
		add(r.name(), func() runStats { return r.run(in, t) })
	}
	for i, r := range w.serve {
		add(r.name(), func() runStats { return runServe(r.name(), in.serve[i], t) })
	}
	return rep
}

// guard turns a panicking run into a failed one.
func guard(name string, fn func() runStats) (rs runStats) {
	defer func() {
		if p := recover(); p != nil {
			rs = runStats{name: name, failed: fmt.Sprintf("panic: %v", p)}
		}
	}()
	return fn()
}

// run executes one Spark configuration the way experiments.RunSpark does.
func (r sparkRun) run(in *inputs, t *tracer) runStats {
	heapGB := r.dramGB - experiments.DR2GB
	spec := rt.Spec{Kind: r.kind}
	mode := spark.ModeSD
	if r.kind == rt.KindTH {
		h1, thCfg := rt.THSizing{
			BudgetGB:    heapGB,
			H1Frac:      r.job.thH1Frac,
			TunedAtFrac: 0.8,
			DatasetGB:   r.job.datasetGB,
			CacheGB:     experiments.DR2GB,
			HugePages:   r.job.hugePages,
			BytesPerGB:  experiments.Scale,
		}.Resolve()
		spec.H1Size = h1
		spec.TH = &thCfg
		mode = spark.ModeTH
	} else {
		spec.H1Size = experiments.GB(heapGB)
	}

	var ses *rt.Session
	timed(t, "rt.session", func() { ses = rt.NewSession(spec) })
	t.attach(ses)
	var job func() ([]float64, error)
	timed(t, "spark.load", func() {
		ctx := spark.NewContext(spark.Conf{
			RT:                ses.Runtime,
			Mode:              mode,
			Threads:           8,
			SerKind:           serde.Kryo,
			OffHeapDev:        ses.Device,
			OffHeapCacheBytes: experiments.GB(experiments.DR2GB),
			OnHeapCacheBytes:  experiments.GB(heapGB) / 2,
		})
		if r.job == &jobPR {
			g := graphx.Load(ctx, in.graph, parts)
			job = func() ([]float64, error) { return g.PageRank(prIters) }
		} else {
			d := mllib.Load(ctx, in.points, parts)
			job = func() ([]float64, error) { return d.LinearRegression(lrEpochs) }
		}
	})
	var result []float64
	var err error
	timed(t, "spark.job", func() { result, err = job() })
	timed(t, "storage.drain", func() { ses.Device.DrainWriteback() })

	rs := snapshot(r.name(), ses)
	rs.digest = digestFloats(result)
	if err != nil {
		rs.failed = err.Error()
	} else if e := ses.Fault(); e != nil {
		rs.failed = e.Error()
	} else if e := ses.Runtime.OOM(); e != nil {
		rs.failed = e.Error()
	}
	return rs
}

// newServeSession sizes a TeraHeap session for cfg as experiments.RunServe
// does at its default machine size.
func newServeSession(cfg server.Config) *rt.Session {
	heapGB := experiments.DefaultServeDramGB - experiments.DR2GB
	h1, thCfg := rt.THSizing{
		BudgetGB:    heapGB,
		H1Frac:      0.8,
		TunedAtFrac: 0.8,
		DatasetGB:   float64(cfg.StoreBytes()) / float64(experiments.Scale),
		CacheGB:     experiments.DR2GB,
		BytesPerGB:  experiments.Scale,
	}.Resolve()
	return rt.NewSession(rt.Spec{Kind: rt.KindTH, H1Size: h1, TH: &thCfg})
}

// runServe executes one serve configuration.
func runServe(name string, cfg server.Config, t *tracer) runStats {
	var ses *rt.Session
	timed(t, "rt.session", func() { ses = newServeSession(cfg) })
	t.attach(ses)
	var st *server.Stats
	var err error
	timed(t, "server.run", func() { st, err = server.Run(ses, cfg) })
	timed(t, "storage.drain", func() { ses.Device.DrainWriteback() })

	rs := snapshot(name, ses)
	rs.Serve = st
	switch {
	case err != nil:
		rs.failed = err.Error()
	case st.Offered != st.Served+st.Shed:
		rs.failed = fmt.Sprintf("offered %d != served %d + shed %d", st.Offered, st.Served, st.Shed)
	case st.Degraded != 0 || st.FaultReplies != 0:
		rs.failed = fmt.Sprintf("%d degraded and %d faulted replies", st.Degraded, st.FaultReplies)
	}
	return rs
}

// snapshot copies a finished session's simulated statistics.
func snapshot(name string, ses *rt.Session) runStats {
	rs := runStats{name: name, B: ses.Clock.Breakdown(), GC: *ses.Runtime.GCStats(), Dev: ses.Device.Stats()}
	if th := ses.TH; th != nil {
		s := th.Stats()
		cache := th.Mapped().Cache()
		rs.TH = &thStats{
			Moved: s.BytesMoved, RegionsAlloc: s.RegionsAllocated, RegionsReclaimed: s.RegionsReclaimed,
			CardsScanned: s.CardsScanned, PageFaults: cache.Faults, SeqFaults: cache.SeqFaults,
		}
	}
	return rs
}

// digestFloats hashes a result vector bit-exactly.
func digestFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// simDigest hashes every simulated statistic of a repetition, so a
// host-only change can show that it left the model untouched.
func (rep repStats) simDigest() uint64 {
	h := fnv.New64a()
	for _, r := range rep.runs {
		writeStats(h, r)
	}
	return h.Sum64()
}

func writeStats(w io.Writer, r runStats) {
	fmt.Fprintf(w, "%s %q %x %v %+v %+v", r.name, r.failed, r.digest, r.B.NS, r.GC, r.Dev)
	if r.TH != nil {
		fmt.Fprintf(w, " %+v", *r.TH)
	}
	if r.Serve != nil {
		fmt.Fprintf(w, " %+v", *r.Serve)
	}
	fmt.Fprintln(w)
}
