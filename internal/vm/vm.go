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
//
// Reclaimed versions are recycled, image buffer included: the first version
// a push cuts off becomes that push's own node, and one more is parked on
// the shard for the next push that cuts nothing (anything beyond that is
// left to the Go collector, so the store holds no more than one idle
// version per shard). With one writer a chain is one version, which every
// push to the row overwrites in place — a steady-state push allocates
// nothing. That is also why Push copies the image it is given and ReadAsOf
// hands out a cell rather than the image slice: an image is rewritten under
// the shard's write lock, so it may only be read under the shard's read
// lock, never through a slice that outlives it.
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
	spare  *Version // one trimmed version awaiting reuse
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

func (s *Store) shardFor(row int64) *shard {
	return &s.shards[uint64(row)%shardCount]
}

// Push prepends a copy of image, the pre-image that was current as of commit
// timestamp ts, and cuts the chain after its newest version with TS <=
// watermark. watermark is the pusher's reclamation bound: no transaction,
// running or yet to begin, reads as of a timestamp below it, and a reader at
// or above it stops at that version, so nothing older can be reached again.
// A stale (smaller) watermark only keeps more. Callers must hold the
// record's exclusive lock, so pushes for one row are serialized and a chain
// is ordered by TS; reads may proceed concurrently. image is the caller's
// to reuse once Push returns.
//
//htap:hotpath
func (s *Store) Push(row int64, ts uint64, image []int64, watermark uint64) {
	sh := s.shardFor(row)
	sh.mu.Lock()
	old := sh.chains[row]
	// Trim first, so what is cut can carry the new head.
	older, cut := old, (*Version)(nil)
	if ts <= watermark {
		older, cut = nil, old
	} else {
		for v := old; v != nil; v = v.Older {
			if v.TS <= watermark {
				cut, v.Older = v.Older, nil
				break
			}
		}
	}
	head := cut
	if head == nil {
		head, sh.spare = sh.spare, nil
	} else if head.Older != nil {
		sh.spare = head.Older
		sh.spare.Older = nil
	}
	if head == nil || cap(head.Image) < len(image) {
		head = newVersion(len(image))
	}
	head.TS = ts
	head.Image = head.Image[:len(image)]
	copy(head.Image, image)
	head.Older = older
	if head != old {
		sh.chains[row] = head
	}
	sh.mu.Unlock()
}

// newVersion allocates a version with room for a width-word image: a row's
// first push, or one made while snapshot readers keep its chain growing.
//
//htap:coldpath
func newVersion(width int) *Version {
	return &Version{Image: make([]int64, width)}
}

// ReadAsOf returns cell col of the newest image of the row with TS <= ts,
// traversing newest-to-oldest. ok is false when no version old enough
// exists (the row was created after ts, or ts is below a watermark some
// Push has trimmed to).
//
//htap:hotpath
func (s *Store) ReadAsOf(row int64, col int, ts uint64) (cell int64, ok bool) {
	sh := s.shardFor(row)
	sh.mu.RLock()
	defer sh.mu.RUnlock() // Push cuts links and rewrites images under the write lock
	for v := sh.chains[row]; v != nil; v = v.Older {
		if v.TS <= ts {
			return v.Image[col], true
		}
	}
	return 0, false
}

// ChainLen returns the length of the row's chain (diagnostics, tests).
func (s *Store) ChainLen(row int64) int {
	sh := s.shardFor(row)
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
