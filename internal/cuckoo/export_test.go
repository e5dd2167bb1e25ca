package cuckoo

// LoadFactor returns size / capacity.
func (t *Table) LoadFactor() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return float64(t.size) / float64(len(t.buckets)*bucketSlots)
}
