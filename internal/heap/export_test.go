package heap

// ForEach visits every card index whose state matches pred.
func (t *CardTable) ForEach(pred func(state byte) bool, fn func(i int)) {
	for i, s := range t.cards {
		if pred(s) {
			fn(i)
		}
	}
}

// CountDirty returns the number of dirty cards.
func (t *CardTable) CountDirty() int {
	n := 0
	for _, s := range t.cards {
		if s == CardDirty {
			n++
		}
	}
	return n
}
