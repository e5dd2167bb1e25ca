// Package txn implements the OLTP engine's Transaction Manager (§3.2):
// multi-version two-phase locking (MV2PL) with wait-die deadlock avoidance
// and snapshot-isolation visibility over the twin-instance columnar
// storage and the vm delta store.
package txn

import (
	"errors"
	"sync"
	"sync/atomic"

	"elastichtap/internal/rowblock"
)

// ErrDie is returned by Locks.Acquire when a younger transaction requests
// a lock held by an older one: under wait-die the requester must abort and
// restart rather than wait, which makes deadlock impossible.
var ErrDie = errors.New("txn: wait-die abort (younger requester)")

// lockBlockShift is log2 of the rows one block of lock words covers: a
// block is 1024 words, 8 KiB.
const lockBlockShift = 10

// waiting is the bit a lock word carries while an older requester waits
// for its holder. Priorities are begin timestamps and never reach it.
const waiting uint64 = 1 << 63

// Locks is one table's record locks: a word per row holding the holder's
// priority (0 = free) and the waiting bit. Snapshot readers never consult
// them (readCommitted). The words live in blocks allocated on the first
// lock of any of their rows and listed by a rowblock.Blocks. The zero
// value is ready to use.
type Locks struct {
	blocks rowblock.Blocks[atomic.Uint64]
	mu     sync.Mutex // parks the (rare) waiters on freed
	freed  sync.Cond
}

// word returns row's lock word, or nil before its block's first lock.
func (l *Locks) word(row int64) *atomic.Uint64 {
	if dir, b := l.blocks.Dir(), row>>lockBlockShift; b < int64(len(dir)) && dir[b] != nil {
		return &dir[b][row&(1<<lockBlockShift-1)]
	}
	return nil
}

// Acquire takes the exclusive lock on row with the given priority (a begin
// timestamp; smaller = older = higher priority). Under wait-die, if the
// current holder is older than the requester, Acquire fails with ErrDie;
// otherwise the requester waits. Re-acquiring with the holder's own
// priority succeeds immediately (reentrant within one transaction).
//
//htap:hotpath
func (l *Locks) Acquire(row int64, priority uint64) error {
	if priority == 0 {
		panic("txn: priority 0 is reserved for the free state")
	}
	w := l.word(row)
	if w == nil {
		w = l.grow(row)
	}
	for {
		h := w.Load()
		switch holder := h &^ waiting; {
		case h == 0:
			if w.CompareAndSwap(0, priority) {
				return nil
			}
		case holder == priority:
			return nil // reentrant
		case holder < priority:
			return ErrDie // requester is younger
		default:
			l.wait(w, h) // requester is older: wait for the holder to finish
		}
	}
}

// Release frees the lock on row. The caller must be the holder.
//
//htap:hotpath
func (l *Locks) Release(row int64) {
	var h uint64
	if w := l.word(row); w != nil {
		h = w.Swap(0)
	}
	if h == 0 {
		panic("txn: release of unheld lock")
	}
	if h&waiting != 0 {
		l.wake()
	}
}

// grow allocates row's block, unless another locker came first, and
// returns row's word.
//
//htap:coldpath
func (l *Locks) grow(row int64) *atomic.Uint64 {
	b := int(row >> lockBlockShift)
	l.blocks.Publish(b, b+1, func(_ int, c []atomic.Uint64) []atomic.Uint64 {
		if c == nil {
			c = make([]atomic.Uint64, 1<<lockBlockShift)
		}
		return c
	})
	return l.word(row)
}

// wait parks the caller until the word changes from h, which it saw held
// by a younger transaction: it sets the waiting bit unless the word has
// moved on already, and the Release that clears the bit wakes it.
//
//htap:coldpath
func (l *Locks) wait(w *atomic.Uint64, h uint64) {
	l.mu.Lock()
	if l.freed.L == nil {
		l.freed.L = &l.mu
	}
	if w.CompareAndSwap(h, h|waiting) {
		l.freed.Wait()
	}
	l.mu.Unlock()
}

// wake wakes every waiter of the table after a Release cleared a word's
// waiting bit.
//
//htap:coldpath
func (l *Locks) wake() {
	l.mu.Lock()
	l.freed.Broadcast()
	l.mu.Unlock()
}
