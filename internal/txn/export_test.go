package txn

// Begin returns the transaction's begin (snapshot) timestamp.
func (t *Txn) Begin() uint64 { return t.begin }

// SetProbe installs (or, with nil, removes) the manager's internal probe.
func (m *Manager) SetProbe(fn func(point string)) {
	if fn == nil {
		m.probe.Store(nil)
		return
	}
	m.probe.Store(&fn)
}
