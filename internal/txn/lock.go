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

// syncPriority is the priority of RDE instance-synchronization lockers: it
// is younger than every transaction, so transactions never die because of
// a sync, and the sync itself always waits instead of dying.
const syncPriority = ^uint64(0)

// LockKey names a lockable record.
type LockKey struct {
	Tab uint32
	Row int64
}

type lockState struct {
	holder  uint64 // priority (begin TS) of the holder; 0 = free
	waiters int
	cond    *sync.Cond
}

const lockShards = 256

type lockShard struct {
	mu    sync.Mutex
	locks map[LockKey]*lockState
}

// LockTable is a sharded exclusive-lock manager for record locks. Both the
// transaction manager and the RDE's instance synchronization use it, so a
// record copy can never race a committing transaction (§3.4).
type LockTable struct {
	shards [lockShards]lockShard
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	for i := range lt.shards {
		lt.shards[i].locks = make(map[LockKey]*lockState)
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
func (lt *LockTable) Acquire(k LockKey, priority uint64) error {
	if priority == 0 {
		panic("txn: priority 0 is reserved for the free state")
	}
	return lt.acquire(k, priority)
}

// AcquireSync takes the lock with the lowest possible priority, always
// waiting and never dying. The RDE engine uses it for one-row-at-a-time
// instance synchronization; holding a single lock at a time keeps it out
// of any deadlock cycle.
func (lt *LockTable) AcquireSync(k LockKey) {
	_ = lt.acquire(k, syncPriority) // a sync requester never dies
}

// acquire is the one wait loop. A transaction (priority below
// syncPriority) re-enters its own lock and dies to an older holder; a sync
// requester does neither and waits for whoever holds the lock, another
// sync included.
func (lt *LockTable) acquire(k LockKey, priority uint64) error {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.locks[k]
	if st == nil {
		st = &lockState{cond: sync.NewCond(&sh.mu)}
		sh.locks[k] = st
	}
	for st.holder != 0 {
		if priority != syncPriority {
			if st.holder == priority {
				return nil // reentrant
			}
			if priority > st.holder {
				return ErrDie // requester is younger
			}
		}
		// Requester is older (or a sync): wait for the holder to finish.
		st.waiters++
		st.cond.Wait()
		st.waiters--
	}
	st.holder = priority
	return nil
}

// Release frees the lock on k. The caller must be the holder.
func (lt *LockTable) Release(k LockKey) {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	st := sh.locks[k]
	if st == nil || st.holder == 0 {
		sh.mu.Unlock()
		panic("txn: release of unheld lock")
	}
	st.holder = 0
	if st.waiters > 0 {
		st.cond.Broadcast()
	} else {
		delete(sh.locks, k) // bound the table: no waiters, no state to keep
	}
	sh.mu.Unlock()
}

// Held reports whether the lock is currently held (diagnostics).
func (lt *LockTable) Held(k LockKey) bool {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.locks[k]
	return st != nil && st.holder != 0
}
