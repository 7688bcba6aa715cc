package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/carv-repro/teraheap-go/internal/vm"
)

// access is one call a device-style mapping received.
type access struct {
	store bool
	a     vm.Addr
	v     uint64
}

// logMem is a non-RAM Memory that records every call it receives, in
// order, so a test can pin the exact call sequence the address space
// makes into a device-backed mapping.
type logMem struct {
	words map[vm.Addr]uint64
	log   []access
}

func newLogMem() *logMem { return &logMem{words: map[vm.Addr]uint64{}} }

func (m *logMem) Load(a vm.Addr) uint64 {
	v := m.words[a]
	m.log = append(m.log, access{a: a, v: v})
	return v
}

func (m *logMem) Store(a vm.Addr, v uint64) {
	m.words[a] = v
	m.log = append(m.log, access{store: true, a: a, v: v})
}

// span is one mapping of a test layout.
type span struct {
	start, end vm.Addr
	ram        bool
}

// layout builds an address space from spans in order and returns it with
// the logMem of every non-RAM span.
func layout(spans []span) (*vm.AddressSpace, map[vm.Addr]*logMem) {
	as := &vm.AddressSpace{}
	logs := map[vm.Addr]*logMem{}
	for _, s := range spans {
		if s.ram {
			as.Map(s.start, s.end, vm.NewRAM(s.start, int64(s.end-s.start)))
		} else {
			lm := newLogMem()
			logs[s.start] = lm
			as.Map(s.start, s.end, lm)
		}
	}
	return as, logs
}

// fastPathLayouts are the mapping shapes the runtimes build: plain H1 in
// DRAM, Panthera's DRAM young gen plus an NVM part of the old gen, and an
// H2-style device mapping registered before H1 (as TeraHeap's is).
var fastPathLayouts = map[string][]span{
	"h1": {{vm.H1Base, vm.H1Base + 64<<10, true}},
	"panthera": {
		{vm.H1Base, vm.H1Base + 32<<10, true},
		{vm.H1Base + 32<<10, vm.H1Base + 48<<10, false},
	},
	"h2": {
		{vm.H2Base, vm.H2Base + 32<<10, false},
		{vm.H1Base, vm.H1Base + 32<<10, true},
	},
}

// owner returns the span covering a, or nil.
func owner(spans []span, a vm.Addr) *span {
	for i := range spans {
		if a >= spans[i].start && a < spans[i].end {
			return &spans[i]
		}
	}
	return nil
}

// pickAddr draws a mapped word address, biased towards each mapping's
// boundary words.
func pickAddr(r *rand.Rand, spans []span) vm.Addr {
	s := spans[r.Intn(len(spans))]
	switch r.Intn(4) {
	case 0:
		return s.start
	case 1:
		return s.end - vm.WordSize
	}
	return s.start + vm.Addr(r.Int63n(int64(s.end-s.start)/vm.WordSize))*vm.WordSize
}

// checker tracks the map model and the call log each device mapping must
// have received.
type checker struct {
	t     *testing.T
	name  string
	spans []span
	logs  map[vm.Addr]*logMem
	model map[vm.Addr]uint64
	want  map[vm.Addr][]access
}

func newChecker(t *testing.T, name string) (*checker, *vm.AddressSpace) {
	spans := fastPathLayouts[name]
	as, logs := layout(spans)
	return &checker{t: t, name: name, spans: spans, logs: logs,
		model: map[vm.Addr]uint64{}, want: map[vm.Addr][]access{}}, as
}

// expect records the device call that an access to a must produce, if a
// lies in a non-RAM mapping.
func (c *checker) expect(store bool, a vm.Addr, v uint64) {
	if s := owner(c.spans, a); !s.ram {
		c.want[s.start] = append(c.want[s.start], access{store: store, a: a, v: v})
	}
}

func (c *checker) load(as *vm.AddressSpace, a vm.Addr) {
	c.t.Helper()
	c.expect(false, a, c.model[a])
	if got := as.Load(a); got != c.model[a] {
		c.t.Fatalf("%s: Load(%v) = %d, model %d", c.name, a, got, c.model[a])
	}
}

func (c *checker) store(as *vm.AddressSpace, a vm.Addr, v uint64) {
	c.model[a] = v
	c.expect(true, a, v)
	as.Store(a, v)
}

// verifyLogs checks every device mapping saw exactly the expected calls.
func (c *checker) verifyLogs() {
	c.t.Helper()
	for start, lm := range c.logs {
		want := c.want[start]
		if len(lm.log) != len(want) {
			c.t.Fatalf("%s: mapping %v got %d calls, want %d", c.name, start, len(lm.log), len(want))
		}
		for i := range want {
			if lm.log[i] != want[i] {
				c.t.Fatalf("%s: mapping %v call %d = %+v, want %+v", c.name, start, i, lm.log[i], want[i])
			}
		}
	}
}

// TestAddressSpaceMatchesModel drives random loads and stores through each
// layout against a map model. RAM words take the fast path; device words
// must still reach their Memory once per access, in program order.
func TestAddressSpaceMatchesModel(t *testing.T) {
	for name := range fastPathLayouts {
		t.Run(name, func(t *testing.T) {
			c, as := newChecker(t, name)
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 20000; i++ {
				a := pickAddr(r, c.spans)
				if r.Intn(2) == 0 {
					c.store(as, a, r.Uint64())
				} else {
					c.load(as, a)
				}
			}
			c.verifyLogs()
		})
	}
}

// TestAddressSpaceUnmappedAccessPanics covers the words just outside each
// layout: Load, Store and Peek must all panic naming the access.
func TestAddressSpaceUnmappedAccessPanics(t *testing.T) {
	for name, spans := range fastPathLayouts {
		as, _ := layout(spans)
		var outside []vm.Addr
		for _, s := range spans {
			for _, a := range []vm.Addr{s.start - vm.WordSize, s.end} {
				if owner(spans, a) == nil {
					outside = append(outside, a)
				}
			}
		}
		outside = append(outside, vm.NullAddr, vm.H2Base+1<<30)
		for _, a := range outside {
			ops := map[string]func(){
				"load from": func() { as.Load(a) },
				"store to":  func() { as.Store(a, 1) },
				"peek of":   func() { as.Peek(a) },
			}
			for op, f := range ops {
				msg := catchPanic(f)
				if !strings.Contains(msg, op+" unmapped address") {
					t.Errorf("%s: %s %v: panic %q", name, op, a, msg)
				}
			}
		}
	}
}

func catchPanic(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "<no panic>"
}

// TestCopyObjectMatchesModel copies random word ranges, overlapping ones
// and ranges that straddle the RAM/device boundary included, against a
// forward word-by-word copy on the model. The device mapping must see the
// interleaved load/store sequence of that word-by-word copy.
func TestCopyObjectMatchesModel(t *testing.T) {
	for name := range fastPathLayouts {
		t.Run(name, func(t *testing.T) {
			c, as := newChecker(t, name)
			m := vm.NewMem(as, nil)
			r := rand.New(rand.NewSource(2))
			// Boundaries between adjacent mappings, where a copy can
			// straddle RAM and device memory.
			var edges []vm.Addr
			for _, s := range c.spans {
				if owner(c.spans, s.end) != nil {
					edges = append(edges, s.end)
				}
			}
			for i := 0; i < 2000; i++ {
				a := pickAddr(r, c.spans)
				c.store(as, a, r.Uint64())

				n := 1 + r.Intn(40)
				var src, dst vm.Addr
				switch {
				case len(edges) > 0 && r.Intn(3) == 0:
					e := edges[r.Intn(len(edges))]
					src = e - vm.Addr(r.Intn(n))*vm.WordSize
					dst = e - vm.Addr(r.Intn(n))*vm.WordSize
				case r.Intn(3) == 0: // overlapping, either direction
					src = pickAddr(r, c.spans)
					dst = src + vm.Addr(r.Intn(2*n+1)-n)*vm.WordSize
				default:
					src, dst = pickAddr(r, c.spans), pickAddr(r, c.spans)
				}
				if !mapped(c.spans, src, n) || !mapped(c.spans, dst, n) {
					continue
				}
				for w := 0; w < n; w++ {
					s, d := src+vm.Addr(w*vm.WordSize), dst+vm.Addr(w*vm.WordSize)
					v := c.model[s]
					c.expect(false, s, v)
					c.expect(true, d, v)
					c.model[d] = v
				}
				m.CopyObject(dst, src, n)
			}
			c.verifyLogs() // before the Peek sweep, which logs device loads
			for a, v := range c.model {
				if got := as.Peek(a); got != v {
					t.Fatalf("%s: word %v = %d after copies, model %d", name, a, got, v)
				}
			}
		})
	}
}

// mapped reports whether the n words from a are all mapped.
func mapped(spans []span, a vm.Addr, n int) bool {
	for w := 0; w < n; w++ {
		if owner(spans, a+vm.Addr(w*vm.WordSize)) == nil {
			return false
		}
	}
	return true
}

// TestMapFastPathNeedsWholeRange: a RAM smaller than its mapping is not
// a fast-path candidate, so an access past the RAM's end still reaches
// RAM.Load and fails there rather than reading a neighbour.
func TestMapFastPathNeedsWholeRange(t *testing.T) {
	as := &vm.AddressSpace{}
	as.Map(vm.H1Base, vm.H1Base+8192, vm.NewRAM(vm.H1Base, 4096))
	as.Store(vm.H1Base+4088, 7)
	if got := as.Load(vm.H1Base + 4088); got != 7 {
		t.Fatalf("load = %d", got)
	}
	if msg := catchPanic(func() { as.Load(vm.H1Base + 4096) }); !strings.Contains(msg, "index out of range") {
		t.Fatalf("load past the RAM: panic %q", msg)
	}
}
