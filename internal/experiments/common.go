// Package experiments reproduces every table and figure of the paper's
// evaluation (§6-§7). Each figure has a runner returning formatted results
// plus raw data; the CLI (cmd/teraheap-bench) and the benchmark suite
// (bench_test.go) both drive these runners.
//
// Scaling: 1 paper-GB is simulated as 100 KB (Scale), preserving every
// dataset:heap:DRAM ratio of Tables 3 and 4 while keeping runs fast. The
// Spark system reserve (DR2) is the paper's fixed 16 GB.
package experiments

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/graphx"
	"github.com/carv-repro/teraheap-go/internal/metrics"
	"github.com/carv-repro/teraheap-go/internal/mllib"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/serde"
	"github.com/carv-repro/teraheap-go/internal/server"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/sparksql"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Scale maps one paper-GB to simulator bytes.
const Scale = 100 * storage.KB

// GB converts paper gigabytes to simulator bytes (64-byte aligned).
func GB(g float64) int64 { return int64(g*float64(Scale)) &^ 63 }

// DR2GB is the Spark system reserve (driver + kernel page cache).
const DR2GB = 16.0

// SparkRun configures one Spark experiment run. Runtime is an rt.Kind:
// the rt kind registry is the single enumeration of runtimes — there is
// no experiments-local mirror to keep in sync.
type SparkRun struct {
	Workload string
	Runtime  rt.Kind
	DramGB   float64
	// Device technology backing H2 / off-heap (NVMe or NVM).
	Device storage.Kind
	// Threads (0 → 8, the paper's executor size).
	Threads int
	// DatasetScale multiplies the workload's dataset size (Fig 13b).
	DatasetScale float64
	// THConfig optionally overrides the TeraHeap configuration.
	THConfig func(*core.Config)
	// Stripes stripes the H2/off-heap device across N units (0/1 = one).
	Stripes int
	// Ctx scopes the run's cross-cutting configuration; nil is the zero
	// context.
	Ctx *RunContext
	// ExpectOOM declares an OOM bar of the paper: the run is expected to
	// run out of memory, and the failure count counts it only if it
	// does not.
	ExpectOOM bool
}

// RunResult captures one run's outcome.
type RunResult struct {
	Name string
	B    simclock.Breakdown
	OOM  bool

	// Faulted marks a run ended by a latched persistent storage fault;
	// Failed marks a run whose goroutine panicked (recovered by the
	// executor); FailErr carries the cause for either. FaultStats counts
	// the faults injected by the active plan, whether or not the run
	// survived them.
	Faulted    bool
	Failed     bool
	FailErr    string
	FaultStats fault.Stats

	GCStats  gc.Stats
	THStats  *core.Stats
	DevStats storage.Stats
	Checksum float64

	// PageFaults counts H2 page-cache faults (TeraHeap runs only).
	PageFaults int64
	// FinalLowThreshold is the low threshold after any dynamic
	// adaptation (TeraHeap runs only).
	FinalLowThreshold float64

	// Recovery snapshots the self-healing layer's counters (TeraHeap runs
	// with recovery installed only).
	Recovery *recovery.Stats

	// Placement snapshots the placement policy's counters (runs with a
	// non-default policy only — NG2C and Deca).
	Placement *placement.Stats

	// Serve carries the request-plane report for serve-mode runs (nil for
	// batch runs).
	Serve *server.Stats
}

// Status is the word a figure prints in place of a failed run's numbers:
// "OOM" when the run ran out of memory, "FAULT" when a storage fault or a
// panic ended it, and "" when it completed.
func (r RunResult) Status() string {
	switch {
	case r.OOM:
		return "OOM"
	case r.Faulted || r.Failed:
		return "FAULT"
	}
	return ""
}

// Completed reports whether the run finished, so that its timings and
// statistics are valid.
func (r RunResult) Completed() bool { return r.Status() == "" }

// Degraded reports a run that absorbed injected faults and still completed:
// the graceful-degradation regime the fault plane exists to exercise.
func (r RunResult) Degraded() bool {
	return r.FaultStats.Any() && r.Completed()
}

// Recovered reports a run the self-healing layer actively repaired — a
// salvage, quarantine, or breaker trip — that still completed with a
// correct result. It refines Degraded: every Recovered run is Degraded,
// but a run that merely absorbed transient faults is not Recovered.
func (r RunResult) Recovered() bool {
	return r.Recovery != nil && r.Recovery.Active() && r.Completed()
}

// Row converts the result to a metrics row.
func (r RunResult) Row() metrics.Row {
	return r.RowNamed(r.Name)
}

// RowNamed is Row with an overridden display name (figure formatters often
// relabel configurations).
func (r RunResult) RowNamed(name string) metrics.Row {
	row := metrics.Row{Name: name, B: r.B, Status: r.Status(), Note: firstLine(r.FailErr)}
	if r.Recovered() {
		row.Recovered = true
		row.Note = r.Recovery.String()
	}
	return row
}

// ratioCell renders one cell of a normalized figure: the run's status
// word when it failed, "-" when the run it is normalized to failed or
// measured zero, and v(r)/v(base) otherwise.
func ratioCell(r, base RunResult, v func(RunResult) float64) string {
	switch {
	case !r.Completed():
		return r.Status()
	case !base.Completed() || v(base) == 0:
		return "-"
	}
	return fmt.Sprintf("%.3f", v(r)/v(base))
}

// sparkSpec describes one Table 3 workload.
type sparkSpec struct {
	name      string
	datasetGB float64
	// Fig 6 DRAM ladders (paper values).
	sdDramGB []float64
	thDramGB []float64
	// sdOOM is the number of leading sdDramGB points where the paper
	// shows Spark-SD running out of memory.
	sdOOM int
	// thH1Frac is the hand-tuned H1 share of DRAM (§6: 50-90%).
	thH1Frac float64
	// hugePages: the paper uses 2MB mappings for the ML streamers.
	hugePages bool
	parts     int
	run       func(ctx *spark.Context, datasetBytes int64) (float64, error)
}

// The dataset constructors below go through the workloads memo cache:
// the generators are pure functions of their parameters, so every run of
// the same workload at the same scale shares one generation pass and one
// immutable in-memory dataset (the partition builders only read it).

// graph sizing: edges ≈ datasetBytes/16 (8B edge word + headers + ids),
// degree 8.
func graphFromBytes(seed uint64, datasetBytes int64) *workloads.Graph {
	edges := datasetBytes / 16
	deg := 8.0
	n := int(float64(edges) / deg)
	if n < 64 {
		n = 64
	}
	return workloads.CachedGraph(seed, n, deg, 0.8)
}

// giraphGraphFromBytes sizes Giraph graphs: each edge entry is two heap
// words (target + weight) plus per-vertex array headers, ~24 bytes/edge.
func giraphGraphFromBytes(seed uint64, datasetBytes int64) *workloads.Graph {
	edges := datasetBytes / 24
	deg := 8.0
	n := int(float64(edges) / deg)
	if n < 64 {
		n = 64
	}
	return workloads.CachedGraph(seed, n, deg, 0.8)
}

// pointsFromBytes: dim-10 points at ~112 bytes each.
func pointsFromBytes(seed uint64, datasetBytes int64) *workloads.Points {
	n := int(datasetBytes / 112)
	if n < 64 {
		n = 64
	}
	return workloads.CachedPoints(seed, n, 10)
}

// rowsFromBytes: ~56 bytes per row.
func rowsFromBytes(seed uint64, datasetBytes int64) *workloads.Rows {
	n := int(datasetBytes / 56)
	if n < 64 {
		n = 64
	}
	return workloads.CachedRows(seed, n, 512)
}

func sum64(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// sparkSpecs is the Table 3 registry. DRAM ladders follow Fig 6's x-axis
// labels; iteration counts are scaled versions of the paper's (100-epoch
// trainings run 12 epochs — the cache:compute ratio per epoch is what
// shapes the figures, not the epoch count).
var sparkSpecs = map[string]*sparkSpec{
	"PR": {name: "PR", datasetGB: 80, sdDramGB: []float64{32, 48, 80, 144}, sdOOM: 1, thDramGB: []float64{32, 80}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(101, ds), 128)
			r, err := g.PageRank(10)
			return sum64(r), err
		}},
	"CC": {name: "CC", datasetGB: 84, sdDramGB: []float64{33, 50, 84, 152}, sdOOM: 1, thDramGB: []float64{33, 84}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(102, ds), 128)
			r, err := g.ConnectedComponents(12)
			var s float64
			for _, l := range r {
				s += float64(l)
			}
			return s, err
		}},
	"SSSP": {name: "SSSP", datasetGB: 58, sdDramGB: []float64{27, 37, 58, 100}, sdOOM: 1, thDramGB: []float64{37, 58}, thH1Frac: 0.72, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(103, ds), 128)
			r, err := g.SSSP(0, 12)
			var s float64
			for _, d := range r {
				if d < 1e18 {
					s += d
				}
			}
			return s, err
		}},
	"SVD": {name: "SVD", datasetGB: 40, sdDramGB: []float64{22, 28, 40, 64}, sdOOM: 2, thDramGB: []float64{28, 40}, thH1Frac: 0.85, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(104, ds), 128)
			return g.SVDPlusPlus(5, 8)
		}},
	"TR": {name: "TR", datasetGB: 80, sdDramGB: []float64{47, 56, 64}, thDramGB: []float64{47, 64}, thH1Frac: 0.8, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			g := graphx.Load(ctx, graphFromBytes(105, ds/4), 128) // TR uses a denser, smaller graph
			c, err := g.TriangleCount()
			return float64(c), err
		}},
	"LR": {name: "LR", datasetGB: 70, sdDramGB: []float64{29, 43, 70, 124}, sdOOM: 2, thDramGB: []float64{43, 70}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(106, ds), 128)
			w, err := d.LinearRegression(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"LgR": {name: "LgR", datasetGB: 70, sdDramGB: []float64{29, 43, 70, 124}, sdOOM: 2, thDramGB: []float64{43, 70}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(107, ds), 128)
			w, err := d.LogisticRegression(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"SVM": {name: "SVM", datasetGB: 48, sdDramGB: []float64{28, 32, 36, 48}, sdOOM: 1, thDramGB: []float64{36, 48}, thH1Frac: 0.67, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(108, ds), 128)
			w, err := d.SVM(12)
			if err != nil {
				return 0, err
			}
			return sum64(w), nil
		}},
	"BC": {name: "BC", datasetGB: 98, sdDramGB: []float64{53, 57, 98, 180}, thDramGB: []float64{57, 98}, thH1Frac: 0.84, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(109, ds), 128)
			m, err := d.NaiveBayes()
			if err != nil {
				return 0, err
			}
			return m.Prior[0] + sum64(m.Mean[0]), nil
		}},
	"RL": {name: "RL", datasetGB: 63, sdDramGB: []float64{24, 37, 63}, sdOOM: 2, thDramGB: []float64{37, 63}, thH1Frac: 0.75, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			tbl := sparksql.Load(ctx, rowsFromBytes(110, ds), 128)
			c, err := tbl.RunQueryMix(6)
			return float64(c), err
		}},
	// KM appears only in the Panthera comparison (Fig 12c).
	"KM": {name: "KM", datasetGB: 64, sdDramGB: []float64{32, 64}, thDramGB: []float64{32, 64}, thH1Frac: 0.77, hugePages: true, parts: 128,
		run: func(ctx *spark.Context, ds int64) (float64, error) {
			d := mllib.Load(ctx, pointsFromBytes(111, ds), 128)
			return d.KMeans(8, 10)
		}},
}

// SparkWorkloads lists the Spark workload names in Table 3 order.
func SparkWorkloads() []string {
	return []string{"PR", "CC", "SSSP", "SVD", "TR", "LR", "LgR", "SVM", "BC", "RL"}
}

// name is the run's row name; the kind registry supplies the runtime
// label.
func (r SparkRun) name() string {
	return fmt.Sprintf("%s/%s/%.0fGB", r.Workload, r.Runtime.SparkLabel(), r.DramGB)
}

// RunSpark executes one Spark configuration and returns its result.
func RunSpark(cfg SparkRun) RunResult {
	spec, ok := sparkSpecs[cfg.Workload]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown Spark workload %q", cfg.Workload))
	}
	if cfg.Threads == 0 {
		cfg.Threads = 8
	}
	if cfg.DatasetScale == 0 {
		cfg.DatasetScale = 1
	}
	datasetBytes := int64(float64(GB(spec.datasetGB)) * cfg.DatasetScale)
	sspec, heapGB := rt.SizeKind(cfg.Runtime, cfg.DramGB, DR2GB, spec.datasetGB*cfg.DatasetScale,
		spec.thH1Frac, spec.hugePages, Scale)
	if sspec.TH != nil && cfg.THConfig != nil {
		cfg.THConfig(sspec.TH)
	}
	sspec.DeviceKind = cfg.Device
	sspec.Stripes = cfg.Stripes
	mode := spark.ModeSD
	switch {
	case sspec.TH != nil:
		mode = spark.ModeTH
	case cfg.Runtime == rt.KindMO || cfg.Runtime == rt.KindPanthera:
		// Spark-MO and Panthera cache everything on their NVM-backed heap.
		mode = spark.ModeMO
	}
	return execute(cfg.name(), sspec, cfg.Ctx, func(ses *rt.Session, res *RunResult) error {
		ctx := spark.NewContext(spark.Conf{
			RT:                ses.Runtime,
			Mode:              mode,
			Threads:           cfg.Threads,
			SerKind:           serde.Kryo,
			OffHeapDev:        ses.Device,
			OffHeapCacheBytes: GB(DR2GB),
			OnHeapCacheBytes:  GB(heapGB) / 2,
		})
		var err error
		res.Checksum, err = spec.run(ctx, datasetBytes)
		return err
	})
}
