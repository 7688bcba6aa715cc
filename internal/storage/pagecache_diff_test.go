package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/carv-repro/teraheap-go/internal/simclock"
)

// refCache is the reference model of PageCache: residency in a map and
// the LRU order in a slice (most recently used first), with its own
// readahead stream table. It charges its own device through the same
// calls PageCache makes, so the two devices' stats and clocks must agree.
type refCache struct {
	dev      *Device
	clock    *simclock.Clock
	pageSize int
	capacity int
	window   time.Duration

	dirty      map[int64]bool          // resident pages -> dirty
	dirtySince map[int64]time.Duration // dirty pages -> time dirtied
	lru        []int64                 // resident pages, MRU first

	streams []refStream
	tick    int64

	hits, faults, seqFaults, writebacks, evictions int64
}

type refStream struct {
	next, used int64
	run        int
}

func newRefCache(pageSize, capacity int, window time.Duration) *refCache {
	clock := simclock.New()
	return &refCache{
		dev: NewDevice(NVMeSSD, clock), clock: clock,
		pageSize: pageSize, capacity: capacity, window: window,
		dirty: map[int64]bool{}, dirtySince: map[int64]time.Duration{},
		streams: make([]refStream, 8),
	}
}

func (r *refCache) pageBytes() int64 { return int64(r.pageSize) }

func (r *refCache) toFront(p int64) {
	if i := slices.Index(r.lru, p); i >= 0 {
		r.lru = slices.Delete(r.lru, i, i+1)
	}
	r.lru = slices.Insert(r.lru, 0, p)
}

func (r *refCache) drop(p int64) {
	i := slices.Index(r.lru, p)
	r.lru = slices.Delete(r.lru, i, i+1)
	delete(r.dirty, p)
	delete(r.dirtySince, p)
}

// sequential classifies a fault: a stream continues when the page lies
// within 16 pages past its expected next page, and it is established
// (readahead-covered) from its third fault on. Otherwise the least
// recently used stream restarts at page.
func (r *refCache) sequential(p int64) bool {
	r.tick++
	for i := range r.streams {
		s := &r.streams[i]
		if s.run > 0 && p >= s.next && p <= s.next+16 {
			s.next, s.run, s.used = p+1, s.run+1, r.tick
			return s.run >= 3
		}
	}
	victim := 0
	for i := range r.streams {
		if r.streams[i].used < r.streams[victim].used {
			victim = i
		}
	}
	r.streams[victim] = refStream{next: p + 1, run: 1, used: r.tick}
	return false
}

func (r *refCache) insert(p int64) {
	r.dirty[p] = false
	r.toFront(p)
	for r.capacity > 0 && len(r.lru) > r.capacity {
		victim := r.lru[len(r.lru)-1]
		if r.dirty[victim] {
			r.writebacks++
			r.dev.Write(r.pageBytes())
		}
		r.evictions++
		r.drop(victim)
	}
}

func (r *refCache) touch(p int64, write bool) {
	if dirty, ok := r.dirty[p]; ok {
		r.hits++
		r.toFront(p)
		if dirty && r.window > 0 && r.clock.Now()-r.dirtySince[p] >= r.window {
			r.writebacks++
			r.dev.WriteAsync(r.pageBytes(), r.pageSize)
			r.dirty[p] = false
		}
	} else {
		r.faults++
		if r.sequential(p) {
			r.seqFaults++
			r.dev.ReadSeqBatched(r.pageBytes())
		} else {
			r.dev.Read(r.pageBytes())
		}
		r.insert(p)
	}
	if write && !r.dirty[p] {
		r.dirty[p] = true
		r.dirtySince[p] = r.clock.Now()
	}
}

func (r *refCache) stage(first, last int64) {
	for p := first; p <= last; p++ {
		if _, ok := r.dirty[p]; !ok {
			r.insert(p)
		}
	}
}

func (r *refCache) invalidate(first, last int64) {
	for _, p := range slices.Clone(r.lru) {
		if p >= first && p <= last {
			r.drop(p)
		}
	}
	for i := range r.streams {
		if s := &r.streams[i]; s.run > 0 && s.next >= first && s.next <= last {
			*s = refStream{}
		}
	}
}

func (r *refCache) dropAll() {
	var n int64
	for _, p := range r.lru { // FlushAll walks the list MRU first
		if r.dirty[p] {
			r.writebacks++
			n += r.pageBytes()
		}
	}
	if n > 0 {
		r.dev.WriteSeq(n, r.pageSize)
	}
	r.lru = r.lru[:0]
	clear(r.dirty)
	clear(r.dirtySince)
}

// residentOrder lists c's resident pages from the LRU list, MRU first.
func residentOrder(c *PageCache) []int64 {
	var out []int64
	for p := c.head; p != nilPage; p = c.slots[p].next {
		out = append(out, int64(p))
	}
	return out
}

// diffCaches returns the first difference between c and the model, or "".
func diffCaches(c *PageCache, r *refCache) string {
	got := [5]int64{c.Hits, c.Faults, c.SeqFaults, c.Writebacks, c.Evictions}
	want := [5]int64{r.hits, r.faults, r.seqFaults, r.writebacks, r.evictions}
	switch {
	case got != want:
		return fmt.Sprintf("counters hits/faults/seq/writebacks/evictions %v, model %v", got, want)
	case !slices.Equal(residentOrder(c), r.lru):
		return fmt.Sprintf("resident order %v, model %v", residentOrder(c), r.lru)
	case c.dev.Stats() != r.dev.Stats():
		return fmt.Sprintf("device stats %+v, model %+v", c.dev.Stats(), r.dev.Stats())
	case c.dev.clock.Now() != r.clock.Now():
		return fmt.Sprintf("clock %v, model %v", c.dev.clock.Now(), r.clock.Now())
	}
	if err := c.CheckConsistency(); err != nil {
		return err.Error()
	}
	return ""
}

// TestPageCacheMatchesModel drives PageCache and the reference model
// through the same random operations: read touches (alternately through
// touchRead and Touch, which must agree) and write touches, biased to the
// MRU page and to sequential runs; clock advances short of and past the
// writeback window; staging (insertClean, as StageWords uses it);
// InvalidateRange; and DropAll. Counters, resident order, device stats
// and the clock must match after every operation.
func TestPageCacheMatchesModel(t *testing.T) {
	const pages = 48
	for _, pageSize := range []int{DefaultPageSize, HugePageSize} {
		for _, capacity := range []int{0, 1, 6} {
			t.Run(fmt.Sprintf("page=%d/cap=%d", pageSize, capacity), func(t *testing.T) {
				clock := simclock.New()
				c := NewPageCache(NewDevice(NVMeSSD, clock), pageSize, capacity)
				r := newRefCache(pageSize, capacity, c.WritebackWindow)
				rng := rand.New(rand.NewSource(int64(pageSize + capacity)))
				last := int64(0)
				for i := 0; i < 20000; i++ {
					var op string
					page := rng.Int63n(pages)
					switch k := rng.Intn(100); {
					case k < 75:
						switch {
						case k < 35 && len(r.lru) > 0:
							page = r.lru[0]
						case k < 55: // the next page of a run
							page = (last + 1) % pages
						}
						last = page
						write := rng.Intn(3) == 0
						switch {
						case write:
							op = fmt.Sprintf("Touch(%d, true)", page)
							c.Touch(page, true)
						case k%2 == 0:
							op = fmt.Sprintf("touchRead(%d)", page)
							c.touchRead(page)
						default:
							op = fmt.Sprintf("Touch(%d, false)", page)
							c.Touch(page, false)
						}
						r.touch(page, write)
					case k < 85:
						d := time.Duration(rng.Int63n(int64(c.WritebackWindow)))
						if k%2 == 0 {
							d += c.WritebackWindow
						}
						op = fmt.Sprintf("advance %v", d)
						clock.Charge(simclock.Other, d)
						r.clock.Charge(simclock.Other, d)
					case k < 93:
						hi := page + rng.Int63n(4)
						op = fmt.Sprintf("stage [%d, %d]", page, hi)
						for p := page; p <= hi; p++ {
							c.insertClean(p)
						}
						r.stage(page, hi)
					case k < 99:
						hi := page + rng.Int63n(20)
						op = fmt.Sprintf("InvalidateRange(%d, %d)", page, hi)
						c.InvalidateRange(page, hi)
						r.invalidate(page, hi)
					default:
						op = "DropAll"
						c.DropAll()
						r.dropAll()
					}
					if d := diffCaches(c, r); d != "" {
						t.Fatalf("op %d %s: %s", i, op, d)
					}
				}
				if c.Hits == 0 || c.Faults == 0 || c.SeqFaults == 0 || c.Writebacks == 0 ||
					(capacity > 0 && c.Evictions == 0) {
					t.Fatalf("vacuous run: hits %d faults %d seq %d writebacks %d evictions %d",
						c.Hits, c.Faults, c.SeqFaults, c.Writebacks, c.Evictions)
				}
			})
		}
	}
}
