package spark

import (
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// BlockManager caches materialized partitions according to the configured
// mode (Fig 4): a hashmap of on-heap blocks, an off-heap serialized store
// (Spark-SD), or TeraHeap tagging (TH).
type BlockManager struct {
	ctx *Context

	onHeap      map[PartitionKey]*cachedBlock
	onHeapBytes int64

	store   *storage.ByteStore
	offHeap map[PartitionKey]*offHeapBlock

	// Counters.
	OnHeapHits  int64
	OffHeapHits int64
	Builds      int64
	Spills      int64
}

type cachedBlock struct {
	h  *vm.Handle
	st PartStats
}

type offHeapBlock struct {
	blob storage.BlobID
	st   PartStats
}

func newBlockManager(ctx *Context) *BlockManager {
	bm := &BlockManager{
		ctx:     ctx,
		onHeap:  make(map[PartitionKey]*cachedBlock),
		offHeap: make(map[PartitionKey]*offHeapBlock),
	}
	if ctx.Conf.Mode == ModeSD {
		dev := ctx.Conf.OffHeapDev
		if dev == nil {
			dev = storage.NewDevice(storage.NVMeSSD, ctx.RT.Clock())
		}
		bm.store = storage.NewByteStore(dev, ctx.Conf.OffHeapCacheBytes)
	}
	return bm
}

// GetOrBuild serves a persisted partition: from the on-heap cache (which,
// under TeraHeap, transparently covers H2-resident partitions), from the
// off-heap serialized store (read + deserialize + rebuild), or by first
// materialization (which also caches it).
func (bm *BlockManager) GetOrBuild(r *RDD, p int) (*vm.Handle, func(), error) {
	key := PartitionKey{RDD: r.ID, Part: p}
	if cb, ok := bm.onHeap[key]; ok {
		bm.OnHeapHits++
		return cb.h, func() {}, nil
	}
	if ob, ok := bm.offHeap[key]; ok {
		bm.OffHeapHits++
		// Off-heap access: device read, deserialization CPU + temps, and
		// reconstruction of the object graph on the heap — all billed to
		// the S/D + I/O bucket.
		clock := bm.ctx.RT.Clock()
		prev := clock.SetContext(simclock.SerDesIO)
		bm.store.Get(ob.blob)
		err := bm.ctx.Ser.ChargeDeserialize(ob.st.Objects, ob.st.Words)
		var h *vm.Handle
		if err == nil {
			h, _, err = r.Build(bm.ctx, p)
		}
		clock.SetContext(prev)
		if err != nil {
			return nil, nil, err
		}
		return h, func() { bm.ctx.RT.Release(h) }, nil
	}

	// First materialization.
	bm.Builds++
	h, st, err := r.Build(bm.ctx, p)
	if err != nil {
		return nil, nil, err
	}
	r.stats[p] = st
	return bm.put(r, key, h, st)
}

func (bm *BlockManager) put(r *RDD, key PartitionKey, h *vm.Handle, st PartStats) (*vm.Handle, func(), error) {
	switch bm.ctx.Conf.Mode {
	case ModeTH:
		// Fig 4 steps 2-3: mark the partition descriptor as a root
		// key-object labelled with the dataset id, and advise movement.
		bm.onHeap[key] = &cachedBlock{h: h, st: st}
		bm.onHeapBytes += st.Words * vm.WordSize
		bm.ctx.RT.TagRoot(h, key.RDD)
		bm.ctx.RT.MoveHint(key.RDD)
		return h, func() {}, nil

	case ModeMO:
		bm.onHeap[key] = &cachedBlock{h: h, st: st}
		bm.onHeapBytes += st.Words * vm.WordSize
		return h, func() {}, nil

	default: // ModeSD
		bytes := st.Words * vm.WordSize
		if bm.ctx.Conf.OnHeapCacheBytes == 0 || bm.onHeapBytes+bytes <= bm.ctx.Conf.OnHeapCacheBytes {
			bm.onHeap[key] = &cachedBlock{h: h, st: st}
			bm.onHeapBytes += bytes
			return h, func() {}, nil
		}
		// On-heap cache full: serialize to the off-heap device store. The
		// heap copy survives only until the current task releases it.
		bm.Spills++
		clock := bm.ctx.RT.Clock()
		prev := clock.SetContext(simclock.SerDesIO)
		sz, err := bm.ctx.Ser.Serialize(h.Addr())
		var blob storage.BlobID
		if err == nil {
			blob = bm.store.Put(sz)
		}
		clock.SetContext(prev)
		if err != nil {
			return nil, nil, err
		}
		bm.offHeap[key] = &offHeapBlock{blob: blob, st: st}
		return h, func() { bm.ctx.RT.Release(h) }, nil
	}
}

// Store exposes the off-heap byte store (nil outside ModeSD).
func (bm *BlockManager) Store() *storage.ByteStore { return bm.store }
