// Package vm implements the OLTP engine's multi-versioned delta storage
// (§3.2): per-record version chains in newest-to-oldest order, following
// the MVCC survey of Wu et al. Updates push full-row pre-images before
// overwriting the active instance in place, so snapshot-isolated readers
// can traverse to the version visible at their begin timestamp.
//
// Versions are reclaimed where they are pushed: every Push carries the
// oldest snapshot any transaction can still read (txn.Manager.MinActive)
// and drops what lies behind it, so a chain holds one version per commit
// the oldest active reader has not seen, plus one. There is no background
// collector and nothing to start; a row that was ever updated keeps its
// last pre-image.
package vm

import "sync"

const shardCount = 128

// Version is one entry of a newest-to-oldest chain.
type Version struct {
	// TS is the commit timestamp at which this image became current.
	TS uint64
	// Image is the full row pre-image (raw column words).
	Image []int64
	// Older points to the next (older) version.
	Older *Version
}

type shard struct {
	mu     sync.RWMutex
	chains map[int64]*Version
}

// Store holds version chains for one table, sharded by row ID.
type Store struct {
	shards [shardCount]shard
}

// NewStore returns an empty version store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].chains = make(map[int64]*Version)
	}
	return s
}

func (s *Store) shardOf(row int64) *shard {
	return &s.shards[uint64(row)%shardCount]
}

// Push prepends a pre-image that was current as of commit timestamp ts, then
// cuts the chain after its newest version with TS <= watermark. watermark is
// the pusher's reclamation bound: no transaction, running or yet to begin,
// reads as of a timestamp below it, and a reader at or above it stops at that
// version, so nothing older can be reached again. A stale (smaller) watermark
// only keeps more. Callers must hold the record's exclusive lock, so pushes
// for one row are serialized and a chain is ordered by TS; reads may proceed
// concurrently.
func (s *Store) Push(row int64, ts uint64, image []int64, watermark uint64) {
	sh := s.shardOf(row)
	sh.mu.Lock()
	head := &Version{TS: ts, Image: image, Older: sh.chains[row]}
	sh.chains[row] = head
	for v := head; v != nil; v = v.Older {
		if v.TS <= watermark {
			v.Older = nil
			break
		}
	}
	sh.mu.Unlock()
}

// ReadAsOf returns the newest image of the row with TS <= ts, traversing
// newest-to-oldest. ok is false when no version old enough exists (the row
// was created after ts, or ts is below a watermark some Push has trimmed to).
func (s *Store) ReadAsOf(row int64, ts uint64) (image []int64, ok bool) {
	sh := s.shardOf(row)
	sh.mu.RLock()
	defer sh.mu.RUnlock() // Push cuts links under the write lock
	for v := sh.chains[row]; v != nil; v = v.Older {
		if v.TS <= ts {
			return v.Image, true
		}
	}
	return nil, false
}

// ChainLen returns the length of the row's chain (diagnostics, tests).
func (s *Store) ChainLen(row int64) int {
	sh := s.shardOf(row)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for v := sh.chains[row]; v != nil; v = v.Older {
		n++
	}
	return n
}

// Len returns the total number of stored versions.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, v := range sh.chains {
			for ; v != nil; v = v.Older {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
