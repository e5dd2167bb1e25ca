package wal

// Synced returns the byte offset known durable.
func (l *Log) Synced() int64 {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.synced
}
