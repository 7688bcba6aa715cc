// Package mllib implements the paper's Spark ML workloads — Linear
// Regression (LR), Logistic Regression (LgR), Support Vector Machine
// (SVM), and the Naive Bayes Classifier (BC) — over a cached labeled-point
// RDD (Table 3).
//
// Training performs streaming passes over the cached points each epoch:
// under TeraHeap the pass streams from the H2 device (the paper's
// "other time increases ... fetching data from the storage device" effect
// for LR/LgR/SVM, §7.1), while under Spark-SD it pays per-epoch
// deserialization.
package mllib

import (
	"math"
	"time"

	"github.com/carv-repro/teraheap-go/internal/spark"
	"github.com/carv-repro/teraheap-go/internal/vm"
	"github.com/carv-repro/teraheap-go/internal/workloads"
)

// Dataset couples a Go-side point set with its cached RDD.
type Dataset struct {
	Ctx   *spark.Context
	Data  *workloads.Points
	Parts int
	RDD   *spark.RDD
}

func (d *Dataset) partRange(p int) (int, int) {
	per := (d.Data.N + d.Parts - 1) / d.Parts
	lo := p * per
	hi := lo + per
	if hi > d.Data.N {
		hi = d.Data.N
	}
	return lo, hi
}

// Load materializes and persists the labeled-point RDD: one partition is
// a ref array of per-point prim arrays [label, x0..x(dim-1)] (float bits).
func Load(ctx *spark.Context, data *workloads.Points, parts int) *Dataset {
	d := &Dataset{Ctx: ctx, Data: data, Parts: parts}
	d.RDD = spark.NewRDD(ctx, parts, d.buildPartition).Persist()
	return d
}

func (d *Dataset) buildPartition(ctx *spark.Context, p int) (*vm.Handle, spark.PartStats, error) {
	lo, hi := d.partRange(p)
	n := hi - lo
	var st spark.PartStats
	root, err := ctx.RT.AllocRefArray(ctx.ClsPartition, n)
	if err != nil {
		return nil, st, err
	}
	h := ctx.RT.NewHandle(root)
	st.Objects = 1
	st.Words = int64(vm.HeaderWords + n)
	dim := d.Data.Dim
	for i := 0; i < n; i++ {
		pt, err := ctx.RT.AllocPrimArray(ctx.ClsData, dim+1)
		if err != nil {
			ctx.RT.Release(h)
			return nil, st, err
		}
		ctx.RT.WritePrim(pt, 0, math.Float64bits(d.Data.Labels[lo+i]))
		for j := 0; j < dim; j++ {
			ctx.RT.WritePrim(pt, 1+j, math.Float64bits(d.Data.X[lo+i][j]))
		}
		ctx.RT.WriteRef(h.Addr(), i, pt)
		st.Objects++
		st.Words += int64(vm.HeaderWords + dim + 1)
		st.Elements++
	}
	ctx.ChargeElements(int64(n * (dim + 1)))
	return h, st, nil
}

// forEachPoint streams the cached points, calling fn(label, pt address).
func (d *Dataset) forEachPoint(fn func(label float64, pt vm.Addr)) error {
	ctx := d.Ctx
	dim := d.Data.Dim
	return d.RDD.ForEachPartition(func(p int, root vm.Addr) error {
		lo, hi := d.partRange(p)
		for i := 0; i < hi-lo; i++ {
			pt := ctx.RT.ReadRef(root, i)
			label := math.Float64frombits(ctx.RT.ReadPrim(pt, 0))
			fn(label, pt)
		}
		ctx.ChargeElements(int64((hi - lo) * dim))
		return nil
	})
}

// feature reads feature j of the point at pt.
func (d *Dataset) feature(pt vm.Addr, j int) float64 {
	return math.Float64frombits(d.Ctx.RT.ReadPrim(pt, 1+j))
}

// gradientDescent runs epochs of full-batch gradient descent with the
// given per-sample gradient contribution.
func (d *Dataset) gradientDescent(epochs int, lr float64,
	grad func(label float64, pred float64) float64,
	pred func(w []float64, pt vm.Addr) float64) ([]float64, error) {

	dim := d.Data.Dim
	w := make([]float64, dim)
	for e := 0; e < epochs; e++ {
		g := make([]float64, dim)
		err := d.forEachPoint(func(label float64, pt vm.Addr) {
			p := pred(w, pt)
			c := grad(label, p)
			if c == 0 {
				return
			}
			for j := 0; j < dim; j++ {
				g[j] += c * d.feature(pt, j)
			}
		})
		if err != nil {
			return nil, err
		}
		// Gradient aggregation is a (small) shuffle; the per-epoch
		// gradient buffers are heap temporaries.
		if err := d.Ctx.Shuffle(int64(dim * d.Parts)); err != nil {
			return nil, err
		}
		for p := 0; p < d.Parts; p++ {
			if _, err := d.Ctx.RT.AllocPrimArray(d.Ctx.ClsData, dim+8); err != nil {
				return nil, err
			}
		}
		for j := 0; j < dim; j++ {
			w[j] -= lr * g[j] / float64(d.Data.N)
		}
		d.Ctx.ChargeCompute(time.Duration(int64(d.Data.N)*int64(dim)) * 3 * time.Nanosecond)
	}
	return w, nil
}

func (d *Dataset) dot(w []float64, pt vm.Addr) float64 {
	var s float64
	for j := range w {
		s += w[j] * d.feature(pt, j)
	}
	return s
}

// LinearRegression (LR) trains least-squares weights.
func (d *Dataset) LinearRegression(epochs int) ([]float64, error) {
	return d.gradientDescent(epochs, 0.1,
		func(label, pred float64) float64 { return 2 * (pred - label) },
		d.dot)
}

// LogisticRegression (LgR) trains a logistic classifier.
func (d *Dataset) LogisticRegression(epochs int) ([]float64, error) {
	return d.gradientDescent(epochs, 0.5,
		func(label, pred float64) float64 {
			// label in {-1,+1}; gradient of log-loss.
			return -label / (1 + math.Exp(label*pred))
		},
		d.dot)
}

// SVM trains a linear SVM with hinge loss.
func (d *Dataset) SVM(epochs int) ([]float64, error) {
	return d.gradientDescent(epochs, 0.2,
		func(label, pred float64) float64 {
			if label*pred < 1 {
				return -label
			}
			return 0
		},
		d.dot)
}

// NaiveBayes (BC) fits per-class Gaussian feature statistics in a single
// pass and returns the resulting model.
type NBModel struct {
	Mean  [2][]float64
	Var   [2][]float64
	Prior [2]float64
}

// NaiveBayes trains the BC workload model.
func (d *Dataset) NaiveBayes() (*NBModel, error) {
	dim := d.Data.Dim
	var count [2]int64
	sum := [2][]float64{make([]float64, dim), make([]float64, dim)}
	sq := [2][]float64{make([]float64, dim), make([]float64, dim)}
	err := d.forEachPoint(func(label float64, pt vm.Addr) {
		c := 0
		if label > 0 {
			c = 1
		}
		count[c]++
		for j := 0; j < dim; j++ {
			x := d.feature(pt, j)
			sum[c][j] += x
			sq[c][j] += x * x
		}
	})
	if err != nil {
		return nil, err
	}
	// Aggregation temporaries per partition.
	for p := 0; p < d.Parts; p++ {
		if _, err := d.Ctx.RT.AllocPrimArray(d.Ctx.ClsData, 4*dim+8); err != nil {
			return nil, err
		}
	}
	if err := d.Ctx.Shuffle(int64(4 * dim * d.Parts)); err != nil {
		return nil, err
	}
	m := &NBModel{}
	total := count[0] + count[1]
	for c := 0; c < 2; c++ {
		m.Mean[c] = make([]float64, dim)
		m.Var[c] = make([]float64, dim)
		if count[c] == 0 {
			continue
		}
		m.Prior[c] = float64(count[c]) / float64(total)
		for j := 0; j < dim; j++ {
			mu := sum[c][j] / float64(count[c])
			m.Mean[c][j] = mu
			m.Var[c][j] = sq[c][j]/float64(count[c]) - mu*mu + 1e-9
		}
	}
	return m, nil
}

// KMeans clusters the cached points into k clusters with Lloyd's
// algorithm (the KM workload of the paper's Panthera comparison, Fig 12c).
// It returns the final within-cluster sum of squares.
func (d *Dataset) KMeans(k, iters int) (float64, error) {
	dim := d.Data.Dim
	centroids := make([][]float64, k)
	for c := 0; c < k; c++ {
		centroids[c] = make([]float64, dim)
		copy(centroids[c], d.Data.X[(c*d.Data.N)/k])
	}
	var wcss float64
	for it := 0; it < iters; it++ {
		sums := make([][]float64, k)
		counts := make([]int64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		wcss = 0
		err := d.forEachPoint(func(label float64, pt vm.Addr) {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				var dist float64
				for j := 0; j < dim; j++ {
					diff := d.feature(pt, j) - centroids[c][j]
					dist += diff * diff
				}
				if dist < bestD {
					best, bestD = c, dist
				}
			}
			wcss += bestD
			counts[best]++
			for j := 0; j < dim; j++ {
				sums[best][j] += d.feature(pt, j)
			}
		})
		if err != nil {
			return 0, err
		}
		// Centroid aggregation shuffle + per-partition temporaries.
		if err := d.Ctx.Shuffle(int64(k * dim * d.Parts)); err != nil {
			return 0, err
		}
		for p := 0; p < d.Parts; p++ {
			if _, err := d.Ctx.RT.AllocPrimArray(d.Ctx.ClsData, k*dim+8); err != nil {
				return 0, err
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		d.Ctx.ChargeCompute(time.Duration(int64(d.Data.N)*int64(k*dim)) * 2 * time.Nanosecond)
	}
	return wcss, nil
}
