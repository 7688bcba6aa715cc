package rt

import (
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Options configures a JVM instance.
type Options struct {
	// H1Size is the regular heap size in bytes.
	H1Size int64
	// HeapCfg optionally overrides the derived heap configuration.
	HeapCfg *heap.Config
	// TH enables TeraHeap with the given configuration (nil = vanilla).
	TH *core.Config
	// H2Device backs H2; required when TH is set. Defaults to NVMe SSD.
	H2Device *storage.Device
}

// JVM is the Parallel Scavenge-based runtime (native and TeraHeap modes).
type JVM struct {
	clock     *simclock.Clock
	classes   *vm.ClassTable
	as        *vm.AddressSpace
	collector *gc.Collector
	th        *core.TeraHeap
	// pretenure routes AllocCold* allocations directly into the old
	// generation (the Panthera allocation policy).
	pretenure bool

	// Devices for traffic accounting in experiments.
	H2Dev *storage.Device
}

var _ Runtime = (*JVM)(nil)

// NewJVM builds a PS-based runtime. With opts.TH set it is the TeraHeap
// configuration; otherwise it is the native JVM.
func NewJVM(opts Options, classes *vm.ClassTable, clock *simclock.Clock) *JVM {
	if clock == nil {
		clock = simclock.New()
	}
	if classes == nil {
		classes = vm.NewClassTable()
	}
	as := &vm.AddressSpace{}

	var th *core.TeraHeap
	var sh gc.SecondHeap
	var h2dev *storage.Device
	if opts.TH != nil {
		h2dev = opts.H2Device
		if h2dev == nil {
			h2dev = storage.NewDevice(storage.NVMeSSD, clock)
		}
		th = core.New(*opts.TH, h2dev, as, clock)
		sh = th
	}

	hc := heap.DefaultConfig(opts.H1Size)
	if opts.HeapCfg != nil {
		hc = *opts.HeapCfg
	}
	col := gc.New(gc.Config{Heap: hc}, as, classes, clock, sh)
	if th != nil {
		th.AttachMem(col.Mem)
	}
	return &JVM{
		clock:     clock,
		classes:   classes,
		as:        as,
		collector: col,
		th:        th,
		H2Dev:     h2dev,
	}
}

// NewMemoryModeJVM builds the Spark-MO baseline: the whole of H1 lives on
// NVM in memory mode, with dramCacheBytes of DRAM acting as a hardware-
// managed cache in front of it.
func NewMemoryModeJVM(h1Size, dramCacheBytes int64, nvm *storage.Device, classes *vm.ClassTable, clock *simclock.Clock) *JVM {
	if clock == nil {
		clock = simclock.New()
	}
	if classes == nil {
		classes = vm.NewClassTable()
	}
	if nvm == nil {
		nvm = storage.NewDevice(storage.NVM, clock)
	}
	as := &vm.AddressSpace{}
	mapped := storage.NewMappedFile(nvm, h1Size, storage.DefaultPageSize, dramCacheBytes)
	as.MapFile(vm.H1Base, mapped, nil)

	hc := heap.DefaultConfig(h1Size)
	col := gc.NewWithHeap(heap.NewUnmapped(hc), as, classes, clock, nil)
	return &JVM{clock: clock, classes: classes, as: as, collector: col, H2Dev: nvm}
}

// NewPantheraJVM builds the Panthera baseline: the young generation and
// dramOldBytes of the old generation in DRAM, the rest of the old
// generation directly on NVM (App Direct), with cold framework data
// pretenured into the old generation. Major GC scans the entire heap,
// including the NVM part — Panthera's fundamental cost (§7.5).
func NewPantheraJVM(h1Size, dramOldBytes int64, nvm *storage.Device, classes *vm.ClassTable, clock *simclock.Clock) *JVM {
	if clock == nil {
		clock = simclock.New()
	}
	if classes == nil {
		classes = vm.NewClassTable()
	}
	if nvm == nil {
		nvm = storage.NewDevice(storage.NVM, clock)
	}
	as := &vm.AddressSpace{}
	hc := heap.DefaultConfig(h1Size)
	h1 := heap.NewUnmapped(hc)

	// DRAM covers young generation plus the DRAM share of the old gen.
	dramEnd := h1.Old.Start + vm.Addr(dramOldBytes)
	if dramEnd > h1.Old.End {
		dramEnd = h1.Old.End
	}
	ram := vm.NewRAM(vm.H1Base, int64(dramEnd-vm.H1Base))
	as.Map(vm.H1Base, dramEnd, ram)
	if dramEnd < h1.Old.End {
		nvmPart := newNVMDirectMemory(dramEnd, int64(h1.Old.End-dramEnd), nvm, clock)
		as.Map(dramEnd, h1.Old.End, nvmPart)
	}

	col := gc.NewWithHeap(h1, as, classes, clock, nil)
	return &JVM{clock: clock, classes: classes, as: as, collector: col, pretenure: true, H2Dev: nvm}
}

// Classes returns the class table.
func (j *JVM) Classes() *vm.ClassTable { return j.classes }

// Mem returns the object accessors.
func (j *JVM) Mem() *vm.Mem { return j.collector.Mem }

// Clock returns the simulation clock.
func (j *JVM) Clock() *simclock.Clock { return j.clock }

// Collector exposes the underlying collector (experiments, tests).
func (j *JVM) Collector() *gc.Collector { return j.collector }

// SetPlacementPolicy installs a placement policy on the collector and,
// when TeraHeap is attached, on its H2 movement decisions. Must be
// called before any allocation.
func (j *JVM) SetPlacementPolicy(p placement.Policy) {
	j.collector.SetPlacementPolicy(p)
	if j.th != nil {
		j.th.SetPlacementPolicy(p)
	}
}

// SetVerify toggles before/after-collection heap verification.
func (j *JVM) SetVerify(v bool) { j.collector.SetVerify(v) }

// Hooks exposes the collector's lifecycle-hook plane.
func (j *JVM) Hooks() *gc.Hooks { return j.collector.Hooks() }

// SetFaultInjector attaches the run's fault injector to the collector, the
// H2 allocator, and the H2 device. One injector per run: all fault
// decisions draw from a single monotonic counter, which is what makes a
// faulty run reproducible from its seed.
func (j *JVM) SetFaultInjector(in *fault.Injector) {
	j.collector.SetFaultInjector(in)
	if j.th != nil {
		j.th.SetFaultInjector(in)
	}
	if j.H2Dev != nil {
		j.H2Dev.SetFaultInjector(in)
	}
}

// Fault returns the latched persistent storage fault (nil-safe for
// interface use), mirroring OOM.
func (j *JVM) Fault() error {
	if e := j.collector.Fault(); e != nil {
		return e
	}
	return nil
}

// TeraHeap returns the H2 instance, or nil.
func (j *JVM) TeraHeap() *core.TeraHeap { return j.th }

// Alloc allocates a fixed-layout instance.
func (j *JVM) Alloc(c *vm.Class) (vm.Addr, error) { return j.collector.Alloc(c) }

// AllocRefArray allocates a reference array of n elements.
func (j *JVM) AllocRefArray(c *vm.Class, n int) (vm.Addr, error) {
	return j.collector.AllocRefArray(c, n)
}

// AllocPrimArray allocates a primitive array of n words.
func (j *JVM) AllocPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	return j.collector.AllocPrimArray(c, n)
}

// AllocColdRefArray allocates a long-lived reference array.
func (j *JVM) AllocColdRefArray(c *vm.Class, n int) (vm.Addr, error) {
	if j.pretenure {
		return j.collector.AllocPretenured(c, n, vm.HeaderWords+n)
	}
	return j.collector.AllocColdRefArray(c, n)
}

// AllocColdPrimArray allocates a long-lived primitive array.
func (j *JVM) AllocColdPrimArray(c *vm.Class, n int) (vm.Addr, error) {
	if j.pretenure {
		return j.collector.AllocPretenured(c, 0, vm.HeaderWords+n)
	}
	return j.collector.AllocColdPrimArray(c, n)
}

// WriteRef stores a reference field through the post-write barrier.
func (j *JVM) WriteRef(obj vm.Addr, field int, val vm.Addr) { j.collector.WriteRef(obj, field, val) }

// ReadRef loads a reference field.
func (j *JVM) ReadRef(obj vm.Addr, field int) vm.Addr { return j.collector.ReadRef(obj, field) }

// WritePrim stores a primitive word.
func (j *JVM) WritePrim(obj vm.Addr, i int, v uint64) { j.collector.WritePrim(obj, i, v) }

// ReadPrim loads a primitive word.
func (j *JVM) ReadPrim(obj vm.Addr, i int) uint64 { return j.collector.ReadPrim(obj, i) }

// NewHandle roots a handle.
func (j *JVM) NewHandle(a vm.Addr) *vm.Handle { return j.collector.NewHandle(a) }

// Release unroots a handle.
func (j *JVM) Release(h *vm.Handle) { j.collector.Release(h) }

// TagRoot applies h2_tag_root (no-op without TeraHeap).
func (j *JVM) TagRoot(h *vm.Handle, label uint64) {
	if j.th != nil {
		j.th.TagRoot(h, label)
	}
}

// MoveHint applies h2_move (no-op without TeraHeap).
func (j *JVM) MoveHint(label uint64) {
	if j.th != nil {
		j.th.Move(label)
	}
}

// InSecondHeap reports whether a is in H2.
func (j *JVM) InSecondHeap(a vm.Addr) bool { return j.th != nil && j.th.Contains(a) }

// HeapUsed returns H1 usage and capacity.
func (j *JVM) HeapUsed() (int64, int64) {
	return j.collector.H1.Used(), j.collector.H1.Cfg.H1Size
}

// FullGC forces a major collection.
func (j *JVM) FullGC() error { return j.collector.MajorGC() }

// OOM returns the latched out-of-memory error (nil-safe for interface use).
func (j *JVM) OOM() error {
	if e := j.collector.OOM(); e != nil {
		return e
	}
	return nil
}

// GCStats returns collector statistics.
func (j *JVM) GCStats() *gc.Stats { return j.collector.Stats() }

// Breakdown snapshots the execution-time breakdown.
func (j *JVM) Breakdown() simclock.Breakdown { return j.clock.Breakdown() }
