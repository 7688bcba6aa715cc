package rt

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/baselines/g1"
	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/fault"
	"github.com/carv-repro/teraheap-go/internal/gc"
	"github.com/carv-repro/teraheap-go/internal/heap"
	"github.com/carv-repro/teraheap-go/internal/placement"
	"github.com/carv-repro/teraheap-go/internal/recovery"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Kind selects a runtime configuration. The registry in kinds.go maps
// kinds to their names, labels, and aliases; String/SparkLabel/KindByName
// all read it.
type Kind int

// Runtime kinds: the paper's six configurations (§6 Table 2) plus the
// NG2C pretenuring and Deca lifetime-region runtimes.
const (
	KindPS       Kind = iota // native Parallel Scavenge JVM (Spark-SD, Giraph-OOC)
	KindTH                   // PS + TeraHeap
	KindG1                   // Garbage First baseline
	KindMO                   // PS over NVM memory mode (Spark-MO)
	KindPanthera             // DRAM+NVM split old generation
	KindG1TH                 // G1 with an attached TeraHeap (§7.1)
	KindNG2C                 // PS + TeraHeap + NG2C allocation-site pretenuring
	KindDeca                 // PS + Deca lifetime regions in DRAM
)

// Spec declares one run's runtime: which configuration to build, how to
// size it, and which cross-cutting layers (verification, fault injection)
// to wire in. NewSession resolves a Spec into a Session; it is the single
// construction path for every runtime kind, replacing the per-experiment
// switch statements that used to duplicate this wiring.
//
// All sizes are simulator bytes (experiment code converts paper GB with
// its Scale; see THSizing for the TeraHeap derivation).
type Spec struct {
	Kind Kind

	// H1Size is the managed heap size (for KindMO/KindPanthera, the whole
	// NVM-backed heap).
	H1Size int64
	// HeapCfg optionally overrides the PS heap geometry (Giraph runs
	// shrink the young generation); nil derives defaults from H1Size.
	HeapCfg *heap.Config

	// TH is the TeraHeap configuration; required for KindTH and KindG1TH.
	TH *core.Config

	// Device optionally provides a pre-built H2/off-heap device. When nil
	// the session builds one from DeviceKind and Stripes.
	Device *storage.Device
	// DeviceKind is the technology backing H2/off-heap; the zero value
	// (DRAM) defaults to NVMe SSD, the paper's base configuration.
	DeviceKind storage.Kind
	// Stripes stripes the device across N units (0/1 = one).
	Stripes int

	// DRAMCacheBytes sizes the hardware-managed DRAM cache in front of
	// the NVM heap (KindMO).
	DRAMCacheBytes int64
	// DRAMOldBytes is the DRAM share of the old generation (KindPanthera).
	DRAMOldBytes int64

	// Classes and Clock are shared when non-nil (microbenchmarks build
	// their class tables up front); nil builds fresh per-session ones.
	Classes *vm.ClassTable
	Clock   *simclock.Clock

	// GCWorkers sets the simulated GC gang size on PS-based kinds (PS, TH,
	// MO, Panthera): N > 1 deals each pause's work items round-robin onto N
	// per-worker spans and charges max-over-workers plus a per-barrier
	// steal/sync overhead. 0 or 1 keeps the legacy serial aggregate,
	// byte-identical to before the knob existed. G1-based kinds model
	// their own pause pipeline and ignore it.
	GCWorkers int
	// WritebackDepth enables the device's asynchronous writeback queue
	// with the given in-flight batch cap: H2 promotion buffers and
	// page-cache writeback submit to the queue and the residual service
	// time is charged when the queue drains at safepoints. 0 keeps the
	// legacy flat async-overlap discount.
	WritebackDepth int

	// Verify registers the full-heap invariant verifier hook.
	Verify bool
	// FaultPlan, when non-nil, builds this run's fault injector and
	// attaches it to the device and runtime. Each session gets its own
	// injector, so concurrent sessions never share fault state.
	FaultPlan *fault.Plan
	// Recovery configures the self-healing layer (PS-based TeraHeap
	// kinds: TH, NG2C, Deca). Nil installs recovery.DefaultPolicy; a
	// policy with Enabled=false opts out, restoring the latch-and-degrade
	// behavior.
	Recovery *recovery.Policy
}

// Session is a fully wired runtime instance: the runtime itself plus the
// per-run resources it was built from. Every run is self-contained — its
// own clock, class table, device, injector, and hook registrations — so
// sessions with different Verify/FaultPlan settings execute concurrently
// without observing each other.
type Session struct {
	Spec    Spec
	Clock   *simclock.Clock
	Classes *vm.ClassTable
	Runtime Runtime
	// Device is the H2/off-heap device (always built: PS/G1 runs use it
	// for the off-heap shuffle/cache files).
	Device *storage.Device
	// TH is the second heap, or nil for kinds without one.
	TH *core.TeraHeap
	// Injector is the run's fault injector (nil when Spec.FaultPlan is).
	Injector *fault.Injector
	// Events is the stock lifecycle-event accounting hook, registered on
	// every session after the verifier (the verifier must observe the
	// heap first).
	Events *EventStats
	// Recovery is the self-healing layer, installed last on the hook
	// plane for PS-based TeraHeap sessions with an enabled policy; nil
	// otherwise.
	Recovery *recovery.Manager
	// Placement is the session's placement policy when the kind installs
	// a non-default one (NG2C, Deca); nil for legacy-placement kinds.
	Placement placement.Policy
}

// EventStats counts collector lifecycle events: the second stock hook of
// the plane (after the verifier). Counting is observation only — it never
// mutates the heap or charges simulated time.
type EventStats struct {
	gc.BaseHook
	MinorGCs int64
	MajorGCs int64
	MixedGCs int64
	Faults   int64
	OOMs     int64
}

// AfterGC counts the completed collection.
func (e *EventStats) AfterGC(p gc.Phase) {
	switch p {
	case gc.PhaseMinor:
		e.MinorGCs++
	case gc.PhaseMajor:
		e.MajorGCs++
	case gc.PhaseMixed:
		e.MixedGCs++
	}
}

// OnFault counts a latched persistent device failure.
func (e *EventStats) OnFault(error) { e.Faults++ }

// OnOOM counts a latched out-of-memory condition.
func (e *EventStats) OnOOM(error) { e.OOMs++ }

// writebackHook drains the device's asynchronous writeback queue at every
// safepoint. BeforeGC fires while the clock is still in mutator context,
// so the residual service time lands in Other: the mutator waits for its
// dirty data to reach the device before the pause begins.
type writebackHook struct {
	gc.BaseHook
	dev *storage.Device
}

func (w *writebackHook) BeforeGC(gc.Phase) { w.dev.DrainWriteback() }

// NewSession resolves spec into a wired runtime. It panics on an invalid
// spec (unknown kind, missing TH config), matching the constructors it
// wraps; experiment code validates sizes beforehand where it needs
// soft failure.
func NewSession(spec Spec) *Session {
	clock := spec.Clock
	if clock == nil {
		clock = simclock.New()
	}
	classes := spec.Classes
	if classes == nil {
		classes = vm.NewClassTable()
	}

	dev := spec.Device
	if dev == nil {
		kind := spec.DeviceKind
		if kind == storage.DRAM && spec.Kind != KindDeca {
			// The zero value defaults to the paper's NVMe base
			// configuration — except for Deca, whose lifetime regions
			// live in memory (a DRAM-cost device).
			kind = storage.NVMeSSD
		}
		if spec.Stripes > 1 {
			dev = storage.NewStripedDevice(kind, spec.Stripes, clock)
		} else {
			dev = storage.NewDevice(kind, clock)
		}
	}

	s := &Session{Spec: spec, Clock: clock, Classes: classes, Device: dev}
	switch spec.Kind {
	case KindPS:
		s.Runtime = NewJVM(Options{H1Size: spec.H1Size, HeapCfg: spec.HeapCfg}, classes, clock)
	case KindTH:
		if spec.TH == nil {
			panic("rt: Spec.TH is required for KindTH")
		}
		jvm := NewJVM(Options{H1Size: spec.H1Size, HeapCfg: spec.HeapCfg,
			TH: spec.TH, H2Device: dev}, classes, clock)
		s.Runtime = jvm
		s.TH = jvm.TeraHeap()
	case KindG1:
		s.Runtime = g1.New(g1.DefaultConfig(spec.H1Size), classes, clock)
	case KindG1TH:
		if spec.TH == nil {
			panic("rt: Spec.TH is required for KindG1TH")
		}
		g, th := g1.NewWithTeraHeap(g1.DefaultConfig(spec.H1Size), *spec.TH, dev, classes, clock)
		s.Runtime = g
		s.TH = th
	case KindMO:
		s.Runtime = NewMemoryModeJVM(spec.H1Size, spec.DRAMCacheBytes, dev, classes, clock)
	case KindPanthera:
		s.Runtime = NewPantheraJVM(spec.H1Size, spec.DRAMOldBytes, dev, classes, clock)
	case KindNG2C:
		if spec.TH == nil {
			panic("rt: Spec.TH is required for KindNG2C")
		}
		jvm := NewJVM(Options{H1Size: spec.H1Size, HeapCfg: spec.HeapCfg,
			TH: spec.TH, H2Device: dev}, classes, clock)
		pol := placement.NewNG2C(placement.DefaultNG2CConfig())
		jvm.SetPlacementPolicy(pol)
		s.Runtime = jvm
		s.TH = jvm.TeraHeap()
		s.Placement = pol
	case KindDeca:
		if spec.TH == nil {
			panic("rt: Spec.TH is required for KindDeca")
		}
		jvm := NewJVM(Options{H1Size: spec.H1Size, HeapCfg: spec.HeapCfg,
			TH: spec.TH, H2Device: dev}, classes, clock)
		pol := placement.NewDeca()
		jvm.SetPlacementPolicy(pol)
		s.Runtime = jvm
		s.TH = jvm.TeraHeap()
		s.Placement = pol
	default:
		panic(fmt.Sprintf("rt: unknown runtime kind %d", int(spec.Kind)))
	}

	// Gang size: cost attribution only, so it is set post-construction on
	// the collector the PS-based kinds share. G1 kinds model their own
	// pause pipeline and take no gang.
	if spec.GCWorkers > 1 {
		if jvm, ok := s.Runtime.(*JVM); ok {
			jvm.Collector().Workers = spec.GCWorkers
		}
	}

	// Cross-cutting layers ride the hook plane, in fixed order: the
	// verifier first (it must see the heap before any layer reacts),
	// event accounting second.
	if spec.Verify {
		s.Runtime.SetVerify(true)
	}
	s.Events = &EventStats{}
	s.Runtime.Hooks().Register(s.Events)

	// The writeback queue drains at safepoints: a hook charges the
	// residual service time as mutator (ambient) wait just before each
	// pause — the documented second exception to the hook plane's
	// "never charge simulated time" rule.
	if spec.WritebackDepth > 0 {
		dev.SetWritebackDepth(spec.WritebackDepth)
		s.Runtime.Hooks().Register(&writebackHook{dev: dev})
	}

	s.Injector = fault.NewInjector(spec.FaultPlan)
	dev.SetFaultInjector(s.Injector)
	if s.Injector != nil {
		if fi, ok := s.Runtime.(interface{ SetFaultInjector(*fault.Injector) }); ok {
			fi.SetFaultInjector(s.Injector)
		}
	}

	// The recovery layer registers last, so the verifier and event counters
	// observe a fault before any repair runs. It needs the PS collector
	// (salvage re-materializes into H1's old generation), so only the
	// PS-based TeraHeap kinds get one.
	if spec.Kind == KindTH || spec.Kind == KindNG2C || spec.Kind == KindDeca {
		pol := recovery.DefaultPolicy()
		if spec.Recovery != nil {
			pol = *spec.Recovery
		}
		if pol.Enabled {
			jvm := s.Runtime.(*JVM)
			s.Recovery = recovery.NewManager(pol, jvm.Collector(), s.TH, s.Injector, clock)
			s.Recovery.Install()
		}
	}
	return s
}

// PlacementStats returns a snapshot of the session's placement-policy
// counters, or nil for legacy-placement kinds.
func (s *Session) PlacementStats() *placement.Stats {
	if s.Placement == nil {
		return nil
	}
	st := s.Placement.Stats()
	return &st
}

// RecoveryStats returns a snapshot of the recovery layer's counters, or
// nil when the session has no recovery layer installed.
func (s *Session) RecoveryStats() *recovery.Stats {
	if s.Recovery == nil {
		return nil
	}
	st := s.Recovery.Stats()
	return &st
}

// Fault returns the run's latched persistent storage failure, checking
// the injector first (device-level failures latch there even on runtimes
// without collector-level polling, like the G1 baseline) and then the
// runtime. Nil when the run is healthy.
func (s *Session) Fault() error {
	if f := s.Injector.Failure(); f != nil {
		return f
	}
	if rf := s.Injector.RegionFault(); rf != nil {
		return rf
	}
	if fr, ok := s.Runtime.(interface{ Fault() error }); ok {
		return fr.Fault()
	}
	return nil
}
