// Package vm defines the simulated managed-runtime object model the
// TeraHeap reproduction is built on: a word-addressed virtual address
// space, Java-style object headers extended with the paper's 8-byte label
// field (§3.2), class descriptors, bump-pointer spaces, and handle-based
// GC roots.
//
// Everything is expressed in terms of 8-byte words and byte addresses so
// that the garbage collector, card tables, and TeraHeap's region machinery
// operate exactly the way the paper describes them over OpenJDK.
package vm

import (
	"fmt"

	"github.com/carv-repro/teraheap-go/internal/storage"
)

// Addr is a byte address in the simulated virtual address space. The zero
// value is the null reference. All object addresses are 8-byte aligned.
type Addr uint64

// NullAddr is the null reference.
const NullAddr Addr = 0

// WordSize is the size of a heap word in bytes.
const WordSize = 8

// IsNull reports whether a is the null reference.
func (a Addr) IsNull() bool { return a == NullAddr }

// Word returns the word index of a relative to base. Addresses are always
// word-aligned and at or above their base, so the divide compiles to an
// unsigned shift (signed division by 8 costs extra sign-fixup instructions
// on this hot path).
func (a Addr) Word(base Addr) int64 { return int64((a - base) >> 3) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Canonical base addresses for the two heaps. H2 sits far above H1 so a
// single comparison implements the paper's "reference range check" used by
// the post-write barriers and the GC fencing (§4).
const (
	H1Base Addr = 0x0000_0001_0000_0000 // 4 GB
	H2Base Addr = 0x0000_0100_0000_0000 // 1 TB
)

// InH2 is the reference range check: it reports whether a points into the
// second heap. It is the single branch the paper adds to the interpreter
// and JIT post-write barriers.
func InH2(a Addr) bool { return a >= H2Base }

// Memory is word-granularity access to a range of the address space.
type Memory interface {
	Load(a Addr) uint64
	Store(a Addr, v uint64)
}

// RAM is DRAM-backed memory: a plain Go slice with no simulated access
// cost (DRAM latency is folded into the mutator compute constants).
type RAM struct {
	base  Addr
	words []uint64
}

// NewRAM allocates sizeBytes of DRAM at base.
func NewRAM(base Addr, sizeBytes int64) *RAM {
	return &RAM{base: base, words: make([]uint64, sizeBytes/WordSize)}
}

// SizeBytes returns the mapped size.
func (r *RAM) SizeBytes() int64 { return int64(len(r.words)) * WordSize }

// Load reads the word at a.
func (r *RAM) Load(a Addr) uint64 { return r.words[(a-r.base)>>3] }

// Store writes the word at a.
func (r *RAM) Store(a Addr, v uint64) { r.words[(a-r.base)>>3] = v }

// Peeker is optionally implemented by Memory backends that can read a
// word without charging simulated cost. The invariant verifier reads the
// whole heap through Peek so that enabling verification never perturbs
// the deterministic clock.
type Peeker interface {
	Peek(a Addr) uint64
}

// mapping binds an address range to a Memory implementation.
type mapping struct {
	start, end Addr // [start, end)
	mem        Memory
}

// AddressSpace routes loads and stores to the mapping covering each
// address. It holds few mappings (H1 and H2), so lookup is a linear scan.
//
// Two mappings are kept as direct fields instead. The first RAM mapping
// whose RAM covers its whole range is a word slice: Load, Store and
// CopyObject range-check and index it without a lookup or an interface
// call. DRAM access is cost-free in the model, so the shortcut charges
// nothing either way. The file mapping (MapFile) calls its MappedFile
// directly, in the same call sequence a Memory adapter over the file
// would make, so the page cache sees the same touches in the same order.
// Every other address takes the mapping scan and the Memory interface.
type AddressSpace struct {
	mappings []mapping

	// ram is the fast-path mapping's words and ramStart its first
	// address; ram is nil until such a mapping is registered.
	ram      []uint64
	ramStart Addr

	// file is the file mapping, fileStart its first address and
	// fileWords its length in words (0 until MapFile). onStore, when
	// non-nil, runs before each store into the file mapping.
	file      *storage.MappedFile
	fileStart Addr
	fileWords uint64
	onStore   func(Addr, uint64)
}

// Map registers a mapping. Ranges must not overlap.
func (as *AddressSpace) Map(start, end Addr, mem Memory) {
	as.mappings = append(as.mappings, mapping{start: start, end: end, mem: mem})
	size := end - start
	if r, ok := mem.(*RAM); ok && as.ram == nil && r.base == start && size%WordSize == 0 &&
		int64(size) <= r.SizeBytes() {
		as.ram = r.words[:size/WordSize]
		as.ramStart = start
	}
}

// MapFile maps f at start: word w of the file lies at start+8w. onStore,
// when non-nil, is called with the address and new value before every
// store into the mapping, so it can still peek the old word. An address
// space holds at most one file mapping; MapFile panics on a second.
// The range must not overlap any other mapping.
func (as *AddressSpace) MapFile(start Addr, f *storage.MappedFile, onStore func(Addr, uint64)) {
	if as.file != nil {
		panic(fmt.Sprintf("vm: second file mapping at %v (one is already mapped at %v)", start, as.fileStart))
	}
	as.file, as.fileStart, as.fileWords, as.onStore = f, start, uint64(f.SizeWords()), onStore
}

// ramIndex returns the fast-path word index of a, and false when a is
// outside the fast-path mapping (or there is none).
func (as *AddressSpace) ramIndex(a Addr) (uint64, bool) {
	i := uint64(a-as.ramStart) >> 3
	return i, i < uint64(len(as.ram))
}

// fileIndex returns the file word index of a, and false when a is
// outside the file mapping (or there is none).
func (as *AddressSpace) fileIndex(a Addr) (int64, bool) {
	w := uint64(a-as.fileStart) >> 3
	return int64(w), w < as.fileWords
}

// resolve returns the Map-registered memory covering a, or nil.
func (as *AddressSpace) resolve(a Addr) Memory {
	for i := range as.mappings {
		m := &as.mappings[i]
		if a >= m.start && a < m.end {
			return m.mem
		}
	}
	return nil
}

// Mapped reports whether a lies in any mapping.
func (as *AddressSpace) Mapped(a Addr) bool {
	_, inRAM := as.ramIndex(a)
	_, inFile := as.fileIndex(a)
	return inRAM || inFile || as.resolve(a) != nil
}

// mustResolve returns the memory covering a. It panics on unmapped
// addresses: an unmapped access is a simulator bug, not a recoverable
// condition. op names the access in the panic message.
func (as *AddressSpace) mustResolve(a Addr, op string) Memory {
	m := as.resolve(a)
	if m == nil {
		panic(fmt.Sprintf("vm: %s unmapped address %v", op, a))
	}
	return m
}

// Load reads the word at a. It panics on unmapped addresses.
func (as *AddressSpace) Load(a Addr) uint64 {
	if i, ok := as.ramIndex(a); ok {
		return as.ram[i]
	}
	return as.loadSlow(a)
}

// loadSlow is Load for every address outside the RAM fast path, kept
// out of line so that Load's own body stays a range check and an index.
func (as *AddressSpace) loadSlow(a Addr) uint64 {
	if w, ok := as.fileIndex(a); ok {
		return as.file.Load(w)
	}
	return as.mustResolve(a, "load from").Load(a)
}

// Peek reads the word at a without charging simulated cost: the file
// mapping and backends implementing Peeker are read directly, anything
// else falls back to Load (RAM loads are already free). Invariant checks
// and tests only.
func (as *AddressSpace) Peek(a Addr) uint64 {
	if w, ok := as.fileIndex(a); ok {
		return as.file.PeekWord(w)
	}
	m := as.mustResolve(a, "peek of")
	if p, ok := m.(Peeker); ok {
		return p.Peek(a)
	}
	return m.Load(a)
}

// Store writes the word at a. It panics on unmapped addresses.
func (as *AddressSpace) Store(a Addr, v uint64) {
	if i, ok := as.ramIndex(a); ok {
		as.ram[i] = v
		return
	}
	as.storeSlow(a, v)
}

// storeSlow is Store for every address outside the RAM fast path.
func (as *AddressSpace) storeSlow(a Addr, v uint64) {
	if w, ok := as.fileIndex(a); ok {
		if as.onStore != nil {
			as.onStore(a, v)
		}
		as.file.Store(w, v)
		return
	}
	as.mustResolve(a, "store to").Store(a, v)
}

// copyRAM copies n words from src to dst with one slice copy when both
// ranges lie inside the fast-path mapping and a forward word-by-word copy
// would give the same result (dst at or below src, or no overlap). It
// reports whether it did the copy.
func (as *AddressSpace) copyRAM(dst, src Addr, n int) bool {
	d, okd := as.ramIndex(dst)
	s, oks := as.ramIndex(src)
	w, lim := uint64(n), uint64(len(as.ram))
	if !okd || !oks || w > lim-d || w > lim-s || (d > s && d < s+w) {
		return false
	}
	copy(as.ram[d:d+w], as.ram[s:s+w])
	return true
}
