package txn

// Begin returns the transaction's begin (snapshot) timestamp.
func (t *Txn) Begin() uint64 { return t.begin }
