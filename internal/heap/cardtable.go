package heap

import "github.com/carv-repro/teraheap-go/internal/vm"

// Card states for the H1 card table. H1 needs only clean/dirty; the richer
// four-state encoding lives in TeraHeap's H2 card table (internal/core).
const (
	CardClean byte = iota
	CardDirty
)

// cardSize is the H1 card segment size in bytes (JVM default 512).
const cardSize = 512

// CardTable maps a contiguous address range to byte-sized card entries,
// one per cardSize-byte segment. The mutator's post-write barrier dirties
// the card covering an updated old-generation object; minor GC scans dirty
// cards to find old-to-young references.
type CardTable struct {
	Start vm.Addr
	End   vm.Addr
	cards []byte
}

// NewCardTable covers [start, end) with cards of cardSize bytes.
func NewCardTable(start, end vm.Addr) *CardTable {
	n := (int64(end-start) + cardSize - 1) / cardSize
	return &CardTable{Start: start, End: end, cards: make([]byte, n)}
}

// Covers reports whether a falls inside the table's range.
func (t *CardTable) Covers(a vm.Addr) bool { return a >= t.Start && a < t.End }

// Index returns the card index covering a.
func (t *CardTable) Index(a vm.Addr) int {
	return int(int64(a-t.Start) / cardSize)
}

// NumCards returns the number of cards.
func (t *CardTable) NumCards() int { return len(t.cards) }

// Get returns the state of card i.
func (t *CardTable) Get(i int) byte { return t.cards[i] }

// Set writes the state of card i.
func (t *CardTable) Set(i int, v byte) { t.cards[i] = v }

// MarkDirty dirties the card covering a. Addresses outside the range are
// ignored (young-generation stores need no card).
func (t *CardTable) MarkDirty(a vm.Addr) {
	if !t.Covers(a) {
		return
	}
	t.cards[t.Index(a)] = CardDirty
}

// CardBounds returns the address range [lo, hi) covered by card i.
func (t *CardTable) CardBounds(i int) (lo, hi vm.Addr) {
	lo = t.Start + vm.Addr(i*cardSize)
	hi = lo + cardSize
	if hi > t.End {
		hi = t.End
	}
	return lo, hi
}

// ClearAll resets every card to clean.
func (t *CardTable) ClearAll() {
	for i := range t.cards {
		t.cards[i] = CardClean
	}
}
