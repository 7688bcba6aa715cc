package gc

import (
	"math/rand"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// searchAll is the reference lookup: a binary search over the whole
// forwarding table, as the adjust phase did before the bucket index.
func searchAll(src, dst []vm.Addr, ref vm.Addr) (vm.Addr, bool) {
	lo, hi := 0, len(src)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if src[mid] < ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(src) && src[lo] == ref {
		return dst[lo], true
	}
	return vm.NullAddr, false
}

// randomTable builds an ascending table of n live sources laid out like a
// compacting heap: objects of 3..40 words with random gaps (dead objects),
// some long enough to leave whole buckets empty.
func randomTable(r *rand.Rand, n int) (src, dst []vm.Addr) {
	a := vm.H1Base + vm.Addr(r.Intn(64))*vm.WordSize
	for i := 0; i < n; i++ {
		src = append(src, a)
		dst = append(dst, vm.Addr(r.Uint64()&vm.FwdAddrMask&^7))
		a += vm.Addr(3+r.Intn(38)) * vm.WordSize
		if r.Intn(10) == 0 {
			a += vm.Addr(r.Intn(4<<fwdBucketShift)) &^ 7
		}
	}
	return src, dst
}

// probes returns the references worth checking against src: every source
// and its neighbouring words (hits and misses), the edges of every bucket
// the table spans, and addresses below and above the table.
func probes(src []vm.Addr) []vm.Addr {
	const bucket = vm.Addr(1) << fwdBucketShift
	out := []vm.Addr{vm.NullAddr, vm.H1Base, vm.H2Base, ^vm.Addr(0) &^ 7}
	for _, a := range src {
		out = append(out, a-vm.WordSize, a, a+vm.WordSize)
	}
	if len(src) > 0 {
		for b := src[0] &^ (bucket - 1); b <= src[len(src)-1]+bucket; b += bucket {
			out = append(out, b-vm.WordSize, b, b+vm.WordSize)
		}
	}
	return out
}

// TestForwardingLookupMatchesFullSearch pins the bucketed lookup to the
// whole-table binary search on random tables, on tables whose sources sit
// exactly on bucket edges, and on empty and single-entry tables. The
// forwarding value is reused across tables, as the collector reuses it
// across cycles, so a stale index from a larger table would show.
func TestForwardingLookupMatchesFullSearch(t *testing.T) {
	const bucket = vm.Addr(1) << fwdBucketShift
	r := rand.New(rand.NewSource(3))
	var tables [][2][]vm.Addr
	for _, n := range []int{5000, 0, 1, 2, 37, 1000, 0, 3} {
		src, dst := randomTable(r, n)
		tables = append(tables, [2][]vm.Addr{src, dst})
	}
	// Sources on bucket edges and on the last word of a bucket.
	var edgeSrc, edgeDst []vm.Addr
	for k := vm.Addr(0); k < 40; k++ {
		base := vm.H1Base + k*bucket
		edgeSrc = append(edgeSrc, base, base+bucket-3*vm.WordSize)
		edgeDst = append(edgeDst, vm.H2Base+k*16, vm.H2Base+k*16+8)
	}
	tables = append(tables, [2][]vm.Addr{edgeSrc, edgeDst})

	var fw forwarding
	for ti, tb := range tables {
		src, dst := tb[0], tb[1]
		fw.src = append(fw.src[:0], src...)
		fw.dst = append(fw.dst[:0], dst...)
		fw.buildIndex()
		hits := map[vm.Addr]bool{}
		for _, ref := range probes(src) {
			want, wok := searchAll(src, dst, ref)
			got, gok := fw.lookup(ref)
			if got != want || gok != wok {
				t.Fatalf("table %d (%d sources): lookup(%v) = %v,%v, full search %v,%v",
					ti, len(src), ref, got, gok, want, wok)
			}
			if gok {
				hits[ref] = true
			}
		}
		if len(hits) != len(src) {
			t.Fatalf("table %d: %d sources found, want all %d", ti, len(hits), len(src))
		}
	}
}
