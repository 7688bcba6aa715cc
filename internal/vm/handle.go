package vm

// Handle is a GC root: a stable box holding an object address that the
// collector updates when the object moves. Framework code (the simulated
// Spark block manager, Giraph partition store, task-local temporaries)
// holds Handles rather than raw addresses across allocation points.
type Handle struct {
	addr Addr
	// slot is the back-index into RootSet.handles, kept by the root set so
	// Release is O(1) without a side map. -1 once released.
	slot int32
}

// Addr returns the current object address (possibly null).
func (h *Handle) Addr() Addr { return h.addr }

// Set stores a new address into the handle. No write barrier is needed:
// handles are roots, scanned fully at every collection.
func (h *Handle) Set(a Addr) { h.addr = a }

// RootSet tracks all live handles. Registration order is preserved so GC
// traversal order, and therefore the whole simulation, is deterministic.
// Each handle carries its slot index, so membership needs no map.
type RootSet struct {
	handles []*Handle
	live    int
}

// NewRootSet returns an empty root set.
func NewRootSet() *RootSet {
	return &RootSet{}
}

// Create allocates a new rooted handle holding a.
func (r *RootSet) Create(a Addr) *Handle {
	h := &Handle{addr: a, slot: int32(len(r.handles))}
	r.handles = append(r.handles, h)
	r.live++
	return h
}

// Release unroots the handle and nulls it: a released handle's address is
// no longer maintained by the collector, so keeping it would leave a
// dangling pointer in anything (such as TeraHeap's tagged-root registry)
// that still sees the handle. The slot is tombstoned (nil) and compacted
// lazily to keep Create/Release O(1).
func (r *RootSet) Release(h *Handle) {
	h.Set(NullAddr)
	i := h.slot
	if i < 0 || int(i) >= len(r.handles) || r.handles[i] != h {
		return
	}
	r.handles[i] = nil
	h.slot = -1
	r.live--
	if r.live*2 < len(r.handles) && len(r.handles) > 64 {
		r.compact()
	}
}

func (r *RootSet) compact() {
	live := r.handles[:0]
	for _, h := range r.handles {
		if h != nil {
			h.slot = int32(len(live))
			live = append(live, h)
		}
	}
	// Clear the tail so released handles do not linger.
	for i := len(live); i < len(r.handles); i++ {
		r.handles[i] = nil
	}
	r.handles = live
}

// ForEach visits every live handle in registration order.
func (r *RootSet) ForEach(fn func(h *Handle)) {
	for _, h := range r.handles {
		if h != nil {
			fn(h)
		}
	}
}

// Handles exposes the underlying slot slice, nil tombstones included, in
// registration order. Callers must treat it as read-only and skip nils; it
// exists so per-GC root scans can iterate without a closure allocation.
func (r *RootSet) Handles() []*Handle { return r.handles }
