package storage

// Observers the tests read state through; production code has no use for
// them.

// Len returns the number of resident pages.
func (c *PageCache) Len() int { return c.resident }

// Model returns the device cost model.
func (d *Device) Model() CostModel { return d.model }

// WritebackPending returns the number of in-flight writeback batches.
func (d *Device) WritebackPending() int { return d.wb.pending() }

// WritebackStats returns a copy of the writeback-queue counters.
func (d *Device) WritebackStats() WritebackStats { return d.wb.stats }

// TotalBytes returns the total bytes stored across all blobs.
func (s *ByteStore) TotalBytes() int64 {
	var t int64
	for _, b := range s.blobs {
		t += b.size
	}
	return t
}

// FlushAll writes back every dirty page (msync-style) without evicting.
func (c *PageCache) FlushAll() {
	var dirtyBytes int64
	for p := c.head; p != nilPage; p = c.slots[p].next {
		s := &c.slots[p]
		if s.state == pageDirty {
			s.state = pageClean
			c.Writebacks++
			dirtyBytes += int64(c.pageSize)
		}
	}
	if dirtyBytes > 0 {
		c.chargeWriteback(func() { c.dev.WriteSeq(dirtyBytes, c.pageSize) })
	}
}

// DropAll empties the cache, writing back dirty pages first.
func (c *PageCache) DropAll() {
	c.FlushAll()
	for p := c.head; p != nilPage; {
		s := &c.slots[p]
		next := s.next
		s.state = pageAbsent
		s.prev, s.next = nilPage, nilPage
		p = next
	}
	c.head, c.tail = nilPage, nilPage
	c.resident = 0
}
