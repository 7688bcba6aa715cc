package spark

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// PartStats sizes a materialized partition for caching decisions and
// deserialization cost accounting.
type PartStats struct {
	Objects  int64
	Words    int64
	Elements int
}

// BuildFn materializes one partition as a rooted heap object graph.
// Builders must return a handle to the partition's single-entry root
// (key-object) — the shape TeraHeap's hint interface expects (§3.1).
type BuildFn func(ctx *Context, p int) (*vm.Handle, PartStats, error)

// RDD is a resilient distributed dataset: a partitioned collection that
// can be recomputed from its build function (lineage) or served from the
// block manager once persisted.
type RDD struct {
	Ctx      *Context
	ID       uint64
	NumParts int
	Build    BuildFn

	persisted bool
	stats     []PartStats
}

// NewRDD registers a dataset with the context.
func NewRDD(ctx *Context, numParts int, build BuildFn) *RDD {
	return &RDD{Ctx: ctx, ID: ctx.NextRDDID(), NumParts: numParts, Build: build,
		stats: make([]PartStats, numParts)}
}

// Persist marks the RDD for caching (the application-level persist() call,
// step 1 in Fig 4). Data is cached lazily, partition by partition, as it
// is first materialized.
func (r *RDD) Persist() *RDD {
	r.persisted = true
	return r
}

// PartitionKey identifies a cached block.
type PartitionKey struct {
	RDD  uint64
	Part int
}

// GetPartition returns a handle to partition p's root, materializing,
// caching, or rebuilding as the mode requires. The returned release
// function must be called when the task is done with the partition.
func (r *RDD) GetPartition(p int) (*vm.Handle, func(), error) {
	if p < 0 || p >= r.NumParts {
		return nil, nil, fmt.Errorf("spark: partition %d out of range [0,%d)", p, r.NumParts)
	}
	if r.persisted {
		return r.Ctx.BM.GetOrBuild(r, p)
	}
	h, st, err := r.Build(r.Ctx, p)
	if err != nil {
		return nil, nil, err
	}
	r.stats[p] = st
	return h, func() { r.Ctx.RT.Release(h) }, nil
}

// ForEachPartition runs fn over every partition in waves of
// Conf.Threads: the partitions of one wave are materialized together
// (their temporary footprints coexist, as with real concurrent tasks)
// before any is released.
func (r *RDD) ForEachPartition(fn func(p int, root vm.Addr) error) error {
	threads := r.Ctx.Conf.Threads
	for base := 0; base < r.NumParts; base += threads {
		hi := base + threads
		if hi > r.NumParts {
			hi = r.NumParts
		}
		handles := make([]*vm.Handle, 0, hi-base)
		releases := make([]func(), 0, hi-base)
		var err error
		for p := base; p < hi; p++ {
			var h *vm.Handle
			var rel func()
			h, rel, err = r.GetPartition(p)
			if err != nil {
				break
			}
			handles = append(handles, h)
			releases = append(releases, rel)
		}
		if err == nil {
			for i, h := range handles {
				if err = fn(base+i, h.Addr()); err != nil {
					break
				}
			}
		}
		for _, rel := range releases {
			rel()
		}
		if err != nil {
			return err
		}
	}
	return nil
}
