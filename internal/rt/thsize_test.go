package rt

import (
	"testing"

	"github.com/carv-repro/teraheap-go/internal/storage"
)

// testScale mirrors the experiment suite's paper-GB → simulator-bytes
// mapping (1 GB = 100 KB).
const testScale = 100 * storage.KB

func testGB(g float64) int64 { return int64(g*float64(testScale)) &^ 63 }

// TestTHSizingSparkPoints pins the Spark derivation to the legacy
// per-runner formula at the Fig 6/7 sizing points: h1 = budget·frac/0.8
// clamped to the budget, H2 at 3× dataset + 64 GB, cache at the fixed
// 16 GB reserve. The expected values are the pre-refactor expressions,
// evaluated verbatim, so any float reordering in THSizing fails here.
func TestTHSizingSparkPoints(t *testing.T) {
	cases := []struct {
		name      string
		dramGB    float64
		frac      float64
		datasetGB float64
		huge      bool
	}{
		{"PR/80GB", 80, 0.8, 80, false},    // Fig 7 full point
		{"PR/32GB", 32, 0.8, 80, false},    // Fig 6 reduced point
		{"SSSP/37GB", 37, 0.72, 58, false}, // non-0.8 fraction
		{"SVM/36GB", 36, 0.67, 48, true},   // huge pages
		{"BC/57GB", 57, 0.84, 98, false},   // frac > 0.8 → clamp territory
		{"LR/43GB", 43, 0.77, 70, true},    // Fig 7 reduced ML point
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			heapGB := c.dramGB - 16.0
			if heapGB < 2 {
				heapGB = 2
			}
			// Legacy formula, exactly as the pre-refactor runner wrote it.
			h1 := heapGB * c.frac / 0.8
			if h1 > heapGB {
				h1 = heapGB
			}
			wantH1 := testGB(h1)
			wantH2 := testGB(c.datasetGB*3 + 64)
			wantCache := testGB(16.0)

			siz := THSizing{
				BudgetGB:    heapGB,
				H1Frac:      c.frac,
				TunedAtFrac: 0.8,
				DatasetGB:   c.datasetGB,
				CacheGB:     16.0,
				HugePages:   c.huge,
				BytesPerGB:  testScale,
			}
			gotH1, cfg := siz.Resolve()
			if gotH1 != wantH1 {
				t.Errorf("h1: got %d want %d", gotH1, wantH1)
			}
			if cfg.H2Size != wantH2 {
				t.Errorf("h2: got %d want %d", cfg.H2Size, wantH2)
			}
			if cfg.CacheBytes != wantCache {
				t.Errorf("cache: got %d want %d", cfg.CacheBytes, wantCache)
			}
			if cfg.RegionSize != 64*storage.KB {
				t.Errorf("region size: got %d want %d", cfg.RegionSize, 64*storage.KB)
			}
			wantPage := int64(storage.DefaultPageSize)
			if c.huge {
				wantPage = 64 * storage.KB
			}
			if int64(cfg.PageSize) != wantPage {
				t.Errorf("page size: got %d want %d", cfg.PageSize, wantPage)
			}
		})
	}
}

// TestTHSizingGiraphPoints pins the Giraph derivation: h1 = DRAM·frac
// with no renormalisation, and the page cache gets the remaining DRAM.
func TestTHSizingGiraphPoints(t *testing.T) {
	cases := []struct {
		name      string
		dramGB    float64
		frac      float64
		datasetGB float64
	}{
		{"PR/74GB", 74, 50.0 / 85, 85}, // Fig 9a reduced point
		{"PR/85GB", 85, 50.0 / 85, 85}, // Table 4 full point
		{"CDLP/74GB", 74, 60.0 / 85, 85},
		{"BFS/57GB", 57, 35.0 / 65, 65},
		{"SSSP/90GB", 90, 50.0 / 90, 90},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Legacy formula from the pre-refactor Giraph runner.
			h1 := c.dramGB * c.frac
			wantH1 := testGB(h1)
			wantH2 := testGB(c.datasetGB*3 + 64)
			wantCache := testGB(c.dramGB - h1)

			siz := THSizing{
				BudgetGB:   c.dramGB,
				H1Frac:     c.frac,
				DatasetGB:  c.datasetGB,
				BytesPerGB: testScale,
			}
			gotH1, cfg := siz.Resolve()
			if gotH1 != wantH1 {
				t.Errorf("h1: got %d want %d", gotH1, wantH1)
			}
			if cfg.H2Size != wantH2 {
				t.Errorf("h2: got %d want %d", cfg.H2Size, wantH2)
			}
			if cfg.CacheBytes != wantCache {
				t.Errorf("cache: got %d want %d", cfg.CacheBytes, wantCache)
			}
		})
	}
}

// TestTHSizingClampsToBudget: a renormalised fraction above 1 clamps H1
// to the whole budget (the PR/CC full points, where frac = tuned-at).
func TestTHSizingClampsToBudget(t *testing.T) {
	siz := THSizing{BudgetGB: 64, H1Frac: 0.9, TunedAtFrac: 0.8, DatasetGB: 80, CacheGB: 16, BytesPerGB: testScale}
	if got, want := siz.H1GB(), 64.0; got != want {
		t.Fatalf("H1GB: got %v want %v (must clamp 0.9/0.8 = 1.125× to the budget)", got, want)
	}
	h1, _ := siz.Resolve()
	if h1 != testGB(64) {
		t.Fatalf("h1 bytes: got %d want %d", h1, testGB(64))
	}
}

// TestSizeKindLegacyFormulas pins SizeKind to the per-runner expressions
// it replaced, evaluated verbatim, for every registered kind: the heap
// budget (DRAM minus the reserve, clamped at 2 GB), PS/G1's whole-heap
// H1, the TeraHeap kinds' THSizing, MO's dataset-fitting NVM heap and
// Panthera's fixed split. Unknown kinds panic.
func TestSizeKindLegacyFormulas(t *testing.T) {
	const reserve = 16.0
	for _, dram := range []float64{17, 44, 80} {
		for _, dataset := range []float64{30, 70 * 0.375} {
			heapGB := dram - reserve
			if heapGB < 2 {
				heapGB = 2
			}
			for _, e := range Kinds() {
				spec, gotHeap := SizeKind(e.Kind, dram, reserve, dataset, 0.77, true, testScale)
				if spec.Kind != e.Kind || gotHeap != heapGB {
					t.Fatalf("%s/%v: kind %v heap %v, want %v heap %v", e.Name, dram, spec.Kind, gotHeap, e.Kind, heapGB)
				}
				var want Spec
				switch e.Kind {
				case KindPS, KindG1:
					want.H1Size = testGB(heapGB)
				case KindTH, KindG1TH, KindNG2C, KindDeca:
					h1, cfg := THSizing{BudgetGB: heapGB, H1Frac: 0.77, TunedAtFrac: 0.8, DatasetGB: dataset,
						CacheGB: reserve, HugePages: true, BytesPerGB: testScale}.Resolve()
					want.H1Size, want.TH = h1, &cfg
				case KindMO:
					want.H1Size = testGB(dataset*3.2 + 16)
					want.DRAMCacheBytes = testGB(dram - 2)
				case KindPanthera:
					want.H1Size = testGB(64)
					want.DRAMOldBytes = testGB(6)
				default:
					t.Fatalf("kind %s has no legacy formula", e.Name)
				}
				if spec.H1Size != want.H1Size || spec.DRAMCacheBytes != want.DRAMCacheBytes || spec.DRAMOldBytes != want.DRAMOldBytes {
					t.Errorf("%s/%vGB/%vGB: sizes %d/%d/%d, want %d/%d/%d", e.Name, dram, dataset,
						spec.H1Size, spec.DRAMCacheBytes, spec.DRAMOldBytes, want.H1Size, want.DRAMCacheBytes, want.DRAMOldBytes)
				}
				if (spec.TH == nil) != (want.TH == nil) || (spec.TH != nil && *spec.TH != *want.TH) {
					t.Errorf("%s/%vGB/%vGB: TeraHeap config %+v, want %+v", e.Name, dram, dataset, spec.TH, want.TH)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SizeKind(Kind(99)) did not panic")
		}
	}()
	SizeKind(Kind(99), 80, reserve, 30, 0.8, false, testScale)
}
