// Package vm implements the OLTP engine's multi-versioned delta storage
// (§3.2): per-record version chains in newest-to-oldest order, following
// the MVCC survey of Wu et al. A commit pushes each written row's full-row
// pre-image before overwriting the active instance in place, so
// snapshot-isolated readers can traverse to the version visible at their
// begin timestamp. A commit that is the only transaction open once it has
// drawn its commit timestamp pushes nothing: every later snapshot begins
// above that timestamp, so no reader can want the image, and Forget drops
// the row's chain instead — a version is made only while a snapshot may
// still need it, as in Silo (Tu et al., SOSP 2013).
//
// A version knows when it stopped being current (Until, the commit that
// overwrote it), and that makes it garbage once the reclamation watermark
// (txn.Manager.MinActive: the oldest snapshot any transaction, running or
// yet to begin, can read) reaches Until — every reader then reads a newer
// image (Wu et al., VLDB 2017; Böttcher et al., VLDB 2019). Versions are
// reclaimed where they are pushed, against the pusher's watermark, in two
// ways. Push cuts the row's own chain after its last version the watermark
// has not passed; a shard keeps each chain's oldest version beside its
// head, so a push made while a reader holds the watermark below it cuts
// nothing and walks nothing. And each shard queues its pushes first-in
// first-out:
// every Push looks at the oldest four, and deletes the chain of a row whose
// head is still the queued version once the watermark has passed its
// Until, so a row updated once is not kept forever. Forget sweeps its shard
// the same way, against its commit timestamp. There is no background
// collector and nothing to start; what a quiesced store holds is the
// chains its shards' last pushes and forgets could not yet sweep.
//
// Reclaimed versions are recycled, image buffer included: the first version
// a push cuts off becomes that push's own node, and swept heads and one more
// cut version are parked on the shard for the next pushes that cut nothing
// (beyond maxSpare of them they are left to the Go collector). With one
// writer beside a reader that renews its snapshot, a chain is one version,
// which every push to the row overwrites in place or a sweep hands to the
// next push — a steady-state push allocates nothing. That is also why Push
// copies the image it is given and ReadAsOf hands out a cell rather than
// the image slice: an image is rewritten under the shard's write lock, so
// it may only be read under the shard's read lock, never through a slice
// that outlives it.
package vm

import (
	"sync"
	"sync/atomic"
)

const shardCount = 128

// sweepBudget is how many queued pushes one Push looks at. Past the one it
// queues, three more: a backlog queued while a long transaction held the
// watermark back drains at three a push once it moves (at two, CH's stock
// and customer stores ended a mixed run holding thousands of unreachable
// chains the sweep had not reached, instead of about one a shard).
const sweepBudget = 4

// maxSpare is how many reclaimed versions a shard keeps for reuse: two, for
// a transaction that pushes two rows of one shard. With one, a CH NewOrder
// (ten-odd stock rows over 128 shards) allocated 0.66 versions per commit.
const maxSpare = 2

// Version is one entry of a newest-to-oldest chain.
type Version struct {
	// TS is the commit timestamp at which this image became current.
	TS uint64
	// Until is the commit timestamp that overwrote it: the first one at
	// which the image is no longer current.
	Until uint64
	// Image is the full row pre-image (raw column words).
	Image []int64
	// Older points to the next (older) version.
	Older *Version
}

// pushed is one queued push: the row and the Until it gave the row's head.
// The pair names that version for as long as it is the head: a later
// commit's push to the row carries a later Until. It holds no pointer, so
// the queue keeps no cut version from the collector.
type pushed struct {
	row   int64
	until uint64
}

// chain is one row's versions, head the newest and tail the oldest. Until
// falls along a chain, so the tail's is its smallest: a push whose
// watermark has not passed it has nothing to cut, and walks nothing.
type chain struct {
	head, tail *Version
}

type shard struct {
	mu     sync.RWMutex
	chains map[int64]chain
	// held is len(chains), stored under mu whenever a push or a forget
	// leaves the shard, so Forget can skip a shard with no chain without
	// taking the lock.
	held atomic.Int64
	// spare lists, through Older, up to maxSpare reclaimed versions
	// awaiting reuse; nspare counts them.
	spare  *Version
	nspare int
	// queue is a ring of the shard's pushes in push order, n of them from
	// queue[first]; its length is zero or a power of two.
	queue    []pushed
	first, n int
}

// Store holds version chains for one table, sharded by row ID.
type Store struct {
	shards [shardCount]shard
}

// NewStore returns an empty version store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].chains = make(map[int64]chain)
	}
	return s
}

func (s *Store) shardFor(row int64) *shard {
	return &s.shards[uint64(row)%shardCount]
}

// Push prepends a copy of image, the pre-image that was current from commit
// timestamp ts until commit timestamp until, and reclaims what watermark
// has passed: the row's versions with Until <= watermark, and the chains of
// the shard's oldest queued pushes (see sweep). watermark is the pusher's
// reclamation bound: no transaction, running or yet to begin, reads as of a
// timestamp below it, and a reader at or above a version's Until reads a
// newer image, so that version can never be reached again. A stale
// (smaller) watermark only keeps more. Callers must hold the record's
// exclusive lock, so pushes for one row are serialized and a chain is
// ordered by TS; reads may proceed concurrently. image is the caller's to
// reuse once Push returns.
//
//htap:hotpath
func (s *Store) Push(row int64, ts, until uint64, image []int64, watermark uint64) {
	sh := s.shardFor(row)
	sh.mu.Lock()
	sh.sweep(row, watermark)
	old := sh.chains[row]
	c := old
	// Trim first, so what is cut can carry the new head: everything from
	// the first version the watermark has passed on goes.
	var head *Version
	if c.tail != nil && c.tail.Until <= watermark {
		link := &c.head
		c.tail = nil
		for (*link).Until > watermark {
			c.tail = *link
			link = &(*link).Older
		}
		head, *link = *link, nil
		if head.Older != nil {
			sh.park(head.Older)
		}
	}
	if head == nil {
		if head = sh.spare; head != nil {
			sh.spare, sh.nspare = head.Older, sh.nspare-1
		}
	}
	if head == nil || cap(head.Image) < len(image) {
		head = newVersion(len(image))
	}
	head.TS, head.Until = ts, until
	head.Image = head.Image[:len(image)]
	copy(head.Image, image)
	head.Older, c.head = c.head, head
	if c.tail == nil {
		c.tail = head
	}
	if c != old {
		sh.chains[row] = c
	}
	if sh.n == len(sh.queue) {
		sh.grow()
	}
	sh.queue[(sh.first+sh.n)&(len(sh.queue)-1)] = pushed{row, until}
	sh.n++
	sh.held.Store(int64(len(sh.chains)))
	sh.mu.Unlock()
}

// Forget stands in for a Push when no transaction but the committer is
// open once it has drawn commitTS: every later snapshot begins above
// commitTS, so neither the pre-image this commit replaces nor anything
// chained before it can be read again, and commitTS is a valid watermark.
// The row's chain is dropped and the shard's queue swept against commitTS.
// A shard that holds no chain costs one atomic load. Callers hold the
// record's exclusive lock, as for Push.
//
//htap:hotpath
func (s *Store) Forget(row int64, commitTS uint64) {
	sh := s.shardFor(row)
	if sh.held.Load() == 0 {
		return
	}
	sh.mu.Lock()
	sh.sweep(row, commitTS)
	if c, ok := sh.chains[row]; ok {
		delete(sh.chains, row)
		sh.park(c.head)
	}
	sh.held.Store(int64(len(sh.chains)))
	sh.mu.Unlock()
}

// sweep looks at up to sweepBudget of the oldest queued pushes, stopping at
// one whose Until the watermark has not passed. A row whose head is still
// the queued version holds nothing a reader can reach — Until falls along
// the chain, so every older version is passed too — and its entry goes,
// the head parked as the spare. An entry whose row has been pushed again,
// or swept, since is stale and dropped; the later push has its own entry.
// So is one of row, which the caller is pushing: its trim reclaims the
// chain and reuses the head in place, with no delete and insert. The
// caller holds sh.mu.
func (sh *shard) sweep(row int64, watermark uint64) {
	for i := 0; i < sweepBudget && sh.n > 0; i++ {
		e := sh.queue[sh.first]
		if e.until > watermark {
			return
		}
		sh.first = (sh.first + 1) & (len(sh.queue) - 1)
		sh.n--
		if e.row == row {
			continue
		}
		if c := sh.chains[e.row]; c.head != nil && c.head.Until == e.until {
			delete(sh.chains, e.row)
			sh.park(c.head)
		}
	}
}

// park lists v, and drops what it links, for a later push to reuse, unless
// the shard already keeps maxSpare. The caller holds sh.mu.
func (sh *shard) park(v *Version) {
	if sh.nspare < maxSpare {
		v.Older, sh.spare = sh.spare, v
		sh.nspare++
	}
}

// grow doubles the push queue: a shard's first push, or one made while a
// snapshot reader holds the watermark back.
//
//htap:coldpath
func (sh *shard) grow() {
	queue := make([]pushed, max(8, 2*len(sh.queue)))
	for i := 0; i < sh.n; i++ {
		queue[i] = sh.queue[(sh.first+i)&(len(sh.queue)-1)]
	}
	sh.queue, sh.first = queue, 0
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
// Push has reclaimed to).
//
//htap:hotpath
func (s *Store) ReadAsOf(row int64, col int, ts uint64) (cell int64, ok bool) {
	sh := s.shardFor(row)
	sh.mu.RLock()
	defer sh.mu.RUnlock() // Push cuts links and rewrites images under the write lock
	for v := sh.chains[row].head; v != nil; v = v.Older {
		if v.TS <= ts {
			return v.Image[col], true
		}
	}
	return 0, false
}

// ChainLen returns the length of the row's chain (diagnostics, tests).
//
//htap:api txn's tests bound version-chain growth with it
func (s *Store) ChainLen(row int64) int {
	sh := s.shardFor(row)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	n := 0
	for v := sh.chains[row].head; v != nil; v = v.Older {
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
		for _, c := range sh.chains {
			for v := c.head; v != nil; v = v.Older {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
