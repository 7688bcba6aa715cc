package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// refFile is the reference path for a file mapping: a Memory adapter
// registered with Map, which turns each address into a word index and
// calls the MappedFile, running onStore before a store.
type refFile struct {
	f       *storage.MappedFile
	start   vm.Addr
	onStore func(vm.Addr, uint64)
}

func (r refFile) word(a vm.Addr) int64      { return int64((a - r.start) / vm.WordSize) }
func (r refFile) Load(a vm.Addr) uint64     { return r.f.Load(r.word(a)) }
func (r refFile) Peek(a vm.Addr) uint64     { return r.f.PeekWord(r.word(a)) }
func (r refFile) Store(a vm.Addr, v uint64) { r.onStore(a, v); r.f.Store(r.word(a), v) }

// fileLayouts are the runtimes' file-mapping shapes: TeraHeap's H2 file
// beside a DRAM H1, and Spark-MO's whole H1 as one file.
var fileLayouts = map[string][]span{
	"teraheap": {
		{vm.H2Base, vm.H2Base + fileBytes, false},
		{vm.H1Base, vm.H1Base + 32<<10, true},
	},
	"spark-mo": {{vm.H1Base, vm.H1Base + fileBytes, false}},
}

// fileBytes is the file size: 16 pages of 4 KB behind a 4-page cache, so
// random access faults, evicts and writes back.
const fileBytes = 64 << 10

// storeNote is one onStore call: the address, the new value, and the word
// the file held at that address when onStore ran.
type storeNote struct {
	a      vm.Addr
	v, old uint64
}

// fileRig is an address space over one layout, with the file mapped
// either by MapFile or through refFile.
type fileRig struct {
	as    *vm.AddressSpace
	f     *storage.MappedFile
	clock *simclock.Clock
	notes []storeNote
}

func newFileRig(spans []span, direct bool) *fileRig {
	clock := simclock.New()
	dev := storage.NewDevice(storage.NVMeSSD, clock)
	g := &fileRig{as: &vm.AddressSpace{}, clock: clock,
		f: storage.NewMappedFile(dev, fileBytes, storage.DefaultPageSize, 4*storage.DefaultPageSize)}
	for _, s := range spans {
		if s.ram {
			g.as.Map(s.start, s.end, vm.NewRAM(s.start, int64(s.end-s.start)))
			continue
		}
		start := s.start
		onStore := func(a vm.Addr, v uint64) {
			g.notes = append(g.notes, storeNote{a, v, g.f.PeekWord(int64((a - start) / vm.WordSize))})
		}
		if direct {
			g.as.MapFile(start, g.f, onStore)
		} else {
			g.as.Map(start, s.end, refFile{f: g.f, start: start, onStore: onStore})
		}
	}
	return g
}

// state renders everything a file access can charge: page-cache
// counters, device stats and the clock.
func (g *fileRig) state() string {
	c := g.f.Cache()
	return fmt.Sprintf("hits=%d faults=%d seq=%d writebacks=%d retries=%d evictions=%d dev=%+v now=%v",
		c.Hits, c.Faults, c.SeqFaults, c.Writebacks, c.WritebackRetries, c.Evictions,
		g.f.Device().Stats(), g.clock.Now())
}

// TestMapFileMatchesAdapter runs MapFile and the refFile adapter side by
// side through random Load, Store, Peek and CopyObject calls, boundary
// words included. Values must match a map model; counters, device stats,
// the clock and the onStore calls must match between the two; and each
// onStore must see the old word, before the store lands.
func TestMapFileMatchesAdapter(t *testing.T) {
	for name, spans := range fileLayouts {
		t.Run(name, func(t *testing.T) {
			direct, ref := newFileRig(spans, true), newFileRig(spans, false)
			m1, m2 := vm.NewMem(direct.as, nil), vm.NewMem(ref.as, nil)
			model := map[vm.Addr]uint64{}
			r := rand.New(rand.NewSource(3))
			for i := 0; i < 20000; i++ {
				a := pickAddr(r, spans)
				var op string
				switch k := r.Intn(10); {
				case k < 4:
					op = fmt.Sprintf("Load(%v)", a)
					v1, v2 := direct.as.Load(a), ref.as.Load(a)
					if v1 != model[a] || v2 != model[a] {
						t.Fatalf("op %d %s = %d (adapter %d), model %d", i, op, v1, v2, model[a])
					}
				case k < 8:
					v := r.Uint64()
					op = fmt.Sprintf("Store(%v, %d)", a, v)
					n := len(direct.notes)
					direct.as.Store(a, v)
					ref.as.Store(a, v)
					if owner(spans, a).ram {
						if len(direct.notes) != n {
							t.Fatalf("op %d %s: onStore ran for a RAM store", i, op)
						}
					} else if got, want := direct.notes[n:], (storeNote{a, v, model[a]}); len(got) != 1 || got[0] != want {
						t.Fatalf("op %d %s: onStore calls %+v, want one %+v", i, op, got, want)
					}
					model[a] = v
				case k < 9:
					op = fmt.Sprintf("Peek(%v)", a)
					if v1, v2 := direct.as.Peek(a), ref.as.Peek(a); v1 != model[a] || v2 != model[a] {
						t.Fatalf("op %d %s = %d (adapter %d), model %d", i, op, v1, v2, model[a])
					}
				default:
					n := 1 + r.Intn(40)
					src := pickAddr(r, spans)
					if !mapped(spans, src, n) || !mapped(spans, a, n) {
						continue
					}
					op = fmt.Sprintf("CopyObject(%v, %v, %d)", a, src, n)
					m1.CopyObject(a, src, n)
					m2.CopyObject(a, src, n)
					for w := 0; w < n; w++ {
						model[a+vm.Addr(w*vm.WordSize)] = model[src+vm.Addr(w*vm.WordSize)]
					}
				}
				if s1, s2 := direct.state(), ref.state(); s1 != s2 {
					t.Fatalf("op %d %s:\nMapFile %s\nadapter %s", i, op, s1, s2)
				}
				if len(direct.notes) != len(ref.notes) ||
					len(direct.notes) > 0 && direct.notes[len(direct.notes)-1] != ref.notes[len(ref.notes)-1] {
					t.Fatalf("op %d %s: onStore calls differ", i, op)
				}
			}
			for a, v := range model {
				if got := direct.as.Peek(a); got != v {
					t.Fatalf("word %v = %d at the end, model %d", a, got, v)
				}
			}
			c := direct.f.Cache()
			if c.Hits == 0 || c.Faults == 0 || c.Evictions == 0 || c.Writebacks == 0 {
				t.Fatalf("vacuous run: %s", direct.state())
			}
		})
	}
}

// TestMapFileBounds checks the file mapping's edge words: start and
// end-8 of every span are mapped, and the words just outside the file are
// not — Load, Store and Peek there panic naming the access.
func TestMapFileBounds(t *testing.T) {
	for name, spans := range fileLayouts {
		g := newFileRig(spans, true)
		for _, s := range spans {
			for _, a := range []vm.Addr{s.start, s.end - vm.WordSize} {
				if !g.as.Mapped(a) {
					t.Errorf("%s: %v not mapped", name, a)
				}
			}
		}
		file := spans[0]
		for _, a := range []vm.Addr{file.start - vm.WordSize, file.end} {
			if g.as.Mapped(a) {
				t.Errorf("%s: %v mapped", name, a)
			}
			ops := map[string]func(){
				"load from": func() { g.as.Load(a) },
				"store to":  func() { g.as.Store(a, 1) },
				"peek of":   func() { g.as.Peek(a) },
			}
			for op, f := range ops {
				if msg := catchPanic(f); !strings.Contains(msg, op+" unmapped address") {
					t.Errorf("%s: %s %v: panic %q", name, op, a, msg)
				}
			}
		}
		if len(g.notes) != 0 {
			t.Errorf("%s: onStore ran for an unmapped store", name)
		}
	}
}

// TestMapFileTwicePanics: an address space holds one file mapping.
func TestMapFileTwicePanics(t *testing.T) {
	g := newFileRig(fileLayouts["teraheap"], true)
	msg := catchPanic(func() { g.as.MapFile(vm.H2Base+fileBytes, g.f, nil) })
	if !strings.Contains(msg, "second file mapping") {
		t.Fatalf("second MapFile: panic %q", msg)
	}
}
