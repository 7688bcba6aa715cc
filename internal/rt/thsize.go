package rt

import (
	"fmt"
	"strings"

	"github.com/carv-repro/teraheap-go/internal/core"
	"github.com/carv-repro/teraheap-go/internal/storage"
)

// THSizing derives a TeraHeap run's H1 size and core.Config from the
// paper's DRAM budgets — the one place the hand-tuned H1-fraction
// arithmetic of §6 lives. Spark and Giraph runs differ only in their
// field values:
//
//   - Spark: BudgetGB is DRAM minus the 16 GB system reserve, the H1
//     fraction was tuned at TunedAtFrac = 0.8, and the H2 page cache gets
//     the fixed reserve (CacheGB = 16).
//   - Giraph: BudgetGB is all of DRAM, the Table 4 fraction applies
//     directly (TunedAtFrac = 0), and the cache gets whatever DRAM is
//     left (CacheGB = 0).
//
// All arithmetic stays in paper-GB floats with the exact operation order
// of the original per-runner code, so the derived byte values — and
// therefore every figure — are bit-identical to the pre-refactor ones.
type THSizing struct {
	// BudgetGB is the DRAM budget H1 is carved from.
	BudgetGB float64
	// H1Frac is the hand-tuned H1 share of the budget (§6: 50-90%).
	H1Frac float64
	// TunedAtFrac, when nonzero, renormalises H1Frac: the Spark fractions
	// were tuned at the DR2=16 points where H1 was 0.8 of the budget.
	TunedAtFrac float64
	// DatasetGB is the effective dataset size (workload size × scale);
	// H2 is provisioned at 3× dataset plus 64 GB slack.
	DatasetGB float64
	// CacheGB is the H2 page-cache budget; 0 means "the rest of the
	// budget after H1" (the Giraph layout).
	CacheGB float64
	// HugePages selects the scaled 2 MB mappings (§6 HugeMap) used by the
	// streaming ML workloads.
	HugePages bool
	// BytesPerGB maps one paper-GB to simulator bytes (the experiment
	// suite's Scale constant).
	BytesPerGB int64
}

// gb converts paper gigabytes to simulator bytes, 64-byte aligned —
// operation-for-operation the experiments.GB conversion.
func (s THSizing) gb(g float64) int64 { return gbBytes(g, s.BytesPerGB) }

func gbBytes(g float64, bytesPerGB int64) int64 {
	return int64(g*float64(bytesPerGB)) &^ 63
}

// H1GB returns the H1 size in paper GB, clamped to the budget.
func (s THSizing) H1GB() float64 {
	h1 := s.BudgetGB * s.H1Frac
	if s.TunedAtFrac > 0 {
		h1 = s.BudgetGB * s.H1Frac / s.TunedAtFrac
	}
	if h1 > s.BudgetGB {
		h1 = s.BudgetGB
	}
	return h1
}

// Resolve returns the H1 size in simulator bytes and the derived TeraHeap
// configuration (64 KB regions; callers layer workload-specific overrides
// on top).
func (s THSizing) Resolve() (h1Bytes int64, thCfg core.Config) {
	h1 := s.H1GB()
	thCfg = core.DefaultConfig(s.gb(s.DatasetGB*3 + 64))
	thCfg.RegionSize = 64 * storage.KB
	cache := s.CacheGB
	if cache == 0 {
		cache = s.BudgetGB - h1
	}
	thCfg.CacheBytes = s.gb(cache)
	if s.HugePages {
		thCfg.PageSize = 64 * storage.KB // scaled huge pages
	}
	return s.gb(h1), thCfg
}

// SizeKind sizes a runtime kind for a DRAM budget: the one per-kind
// sizing rule of the Spark and serve runs (Giraph's Table 4 sizing only
// builds PS and TeraHeap and keeps its own). It returns a Spec with Kind
// and the sizing fields set, plus the managed-heap budget in paper GB:
// DRAM minus reserveGB, clamped to at least 2 GB.
//
//   - PS and G1 get the whole heap budget as H1.
//   - TeraHeap kinds go through THSizing with the H1 fraction tuned at
//     0.8 and the reserve as the H2 page cache.
//   - MO sizes its NVM heap to fit everything (dataset·3.2 + 16 GB) with
//     DRAM minus 2 GB as the hardware cache.
//   - Panthera gets a fixed 64 GB heap with 6 GB of DRAM old generation
//     (the paper's 25% DRAM / 75% NVM split, §7.5).
//
// Keep each float expression's operation order: every figure depends on
// these byte sizes bit for bit. Unknown kinds panic.
func SizeKind(kind Kind, dramGB, reserveGB, datasetGB, h1Frac float64, hugePages bool, bytesPerGB int64) (Spec, float64) {
	heapGB := dramGB - reserveGB
	if heapGB < 2 {
		heapGB = 2
	}
	spec := Spec{Kind: kind}
	switch {
	case kind == KindPS || kind == KindG1:
		spec.H1Size = gbBytes(heapGB, bytesPerGB)
	case kind.Info().TeraHeap:
		h1, thCfg := THSizing{
			BudgetGB:    heapGB,
			H1Frac:      h1Frac,
			TunedAtFrac: 0.8,
			DatasetGB:   datasetGB,
			CacheGB:     reserveGB,
			HugePages:   hugePages,
			BytesPerGB:  bytesPerGB,
		}.Resolve()
		spec.H1Size = h1
		spec.TH = &thCfg
	case kind == KindMO:
		spec.H1Size = gbBytes(datasetGB*3.2+16, bytesPerGB)
		spec.DRAMCacheBytes = gbBytes(dramGB-2, bytesPerGB)
	case kind == KindPanthera:
		spec.H1Size = gbBytes(64, bytesPerGB)
		spec.DRAMOldBytes = gbBytes(6, bytesPerGB)
	default:
		panic(fmt.Sprintf("rt: unknown runtime kind %v (valid: %s)", kind, strings.Join(KindNames(), " ")))
	}
	return spec, heapGB
}
