// Package txn implements the OLTP engine's Transaction Manager (§3.2):
// multi-version two-phase locking (MV2PL) with wait-die deadlock avoidance
// and snapshot-isolation visibility over the twin-instance columnar
// storage and the vm delta store.
package txn

import (
	"errors"
	"sync"
)

// ErrDie is returned by the lock table when a younger transaction requests
// a lock held by an older one: under wait-die the requester must abort and
// restart rather than wait, which makes deadlock impossible.
var ErrDie = errors.New("txn: wait-die abort (younger requester)")

// LockKey names a lockable record.
type LockKey struct {
	Tab uint32
	Row int64
}

// lockState is one record's lock, stored by value in its shard's map and
// only while the lock is held or waited for.
type lockState struct {
	holder  uint64 // priority (begin TS) of the holder; 0 = free
	waiters int32
}

const lockShards = 256

type lockShard struct {
	mu    sync.Mutex
	locks map[LockKey]lockState
	// freed is signalled whenever a lock of this shard with waiters is
	// released; requesters blocked on any key of the shard share it and
	// re-check their own key. Waiting is rare, keys per shard few.
	freed sync.Cond
}

// LockTable is a sharded exclusive-lock manager for record locks. Only
// writing transactions take them: the RDE's instance synchronization
// writes the inactive instance, which no transaction touches (see
// rde.Exchange), and snapshot readers never consult the table — a row's
// timestamp word tells them whether its cells are changing (readCommitted).
type LockTable struct {
	shards [lockShards]lockShard
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	for i := range lt.shards {
		sh := &lt.shards[i]
		sh.locks = make(map[LockKey]lockState)
		sh.freed.L = &sh.mu
	}
	return lt
}

func (lt *LockTable) shardOf(k LockKey) *lockShard {
	h := uint64(k.Tab)*0x9e3779b97f4a7c15 ^ uint64(k.Row)*0xc2b2ae3d27d4eb4f
	return &lt.shards[h%lockShards]
}

// Acquire takes the exclusive lock on k with the given priority (a begin
// timestamp; smaller = older = higher priority). Under wait-die, if the
// current holder is older than the requester, Acquire fails with ErrDie;
// otherwise the requester waits. Re-acquiring with the holder's own
// priority succeeds immediately (reentrant within one transaction).
//
//htap:hotpath
func (lt *LockTable) Acquire(k LockKey, priority uint64) error {
	if priority == 0 {
		panic("txn: priority 0 is reserved for the free state")
	}
	sh := lt.shardOf(k)
	sh.mu.Lock()
	st := sh.locks[k]
	for st.holder != 0 {
		if st.holder == priority {
			sh.mu.Unlock()
			return nil // reentrant
		}
		if priority > st.holder {
			sh.mu.Unlock()
			return ErrDie // requester is younger
		}
		// Requester is older: wait for the holder to finish. The entry
		// outlives the release while anyone waits on it.
		st.waiters++
		sh.locks[k] = st
		sh.freed.Wait()
		st = sh.locks[k]
		st.waiters--
		sh.locks[k] = st
	}
	st.holder = priority
	sh.locks[k] = st
	sh.mu.Unlock()
	return nil
}

// Release frees the lock on k. The caller must be the holder.
//
//htap:hotpath
func (lt *LockTable) Release(k LockKey) {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	st := sh.locks[k]
	if st.holder == 0 {
		sh.mu.Unlock()
		panic("txn: release of unheld lock")
	}
	if st.waiters > 0 {
		sh.locks[k] = lockState{waiters: st.waiters}
		sh.freed.Broadcast()
	} else {
		delete(sh.locks, k) // bound the table: no waiters, no state to keep
	}
	sh.mu.Unlock()
}
