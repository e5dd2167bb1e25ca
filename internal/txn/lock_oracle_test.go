package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// LockKey names a lockable record of the oracle lock table.
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
	// re-check their own key.
	freed sync.Cond
}

// LockTable is the sharded map lock manager the per-row lock words
// replaced, kept as the oracle they are held to.
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

// Acquire takes the exclusive lock on k under wait-die, as Locks.Acquire
// does.
func (lt *LockTable) Acquire(k LockKey, priority uint64) error {
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
		delete(sh.locks, k)
	}
	sh.mu.Unlock()
}

// state returns k's holder and waiter count.
func (lt *LockTable) state(k LockKey) lockState {
	sh := lt.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.locks[k]
}

// lockCall runs one Acquire through both tables, each on its own
// goroutine, and collects the two results.
type lockCall struct {
	p             uint64
	words, oracle chan error
	describe      string
}

func startAcquire(l *Locks, lt *LockTable, k LockKey, p uint64) *lockCall {
	c := &lockCall{p: p, words: make(chan error, 1), oracle: make(chan error, 1),
		describe: fmt.Sprintf("Acquire(table %d, row %d, priority %d)", k.Tab, k.Row, p)}
	go func() { c.words <- l.Acquire(k.Row, p) }()
	go func() { c.oracle <- lt.Acquire(k, p) }()
	return c
}

// results waits up to 10 s for both tables' answers.
func (c *lockCall) results(t *testing.T) (words, oracle error) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2; got++ {
		select {
		case words = <-c.words:
			c.words = nil
		case oracle = <-c.oracle:
			c.oracle = nil
		case <-deadline:
			t.Fatalf("%s: still blocked after 10 s (lock words answered: %v, map table answered: %v)",
				c.describe, c.words == nil, c.oracle == nil)
		}
	}
	return words, oracle
}

// returned reports whether either table has answered c yet.
func (c *lockCall) returned() bool { return len(c.words) > 0 || len(c.oracle) > 0 }

// TestLockWordsMatchMapTable drives seeded random Acquire/Release
// sequences over a few rows of three tables, spanning lock blocks, through
// the lock words and the map lock table they replaced, and requires the
// same answer from both on every call, ErrDie included. A call the oracle
// says must wait has to stay blocked in both — parked with the waiting bit
// set on its word — until its holder releases, and then take the lock.
func TestLockWordsMatchMapTable(t *testing.T) {
	const priorities = 6
	rows := []int64{0, 1, 1023, 1024, 5000}
	waits, dies := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tables [3]Locks
		lt := NewLockTable()
		held := map[LockKey]uint64{}      // key -> holder, per the oracle
		waiter := map[LockKey]*lockCall{} // the one parked requester of a key
		blocked := map[uint64]bool{}      // priorities parked in a call
		for step := 0; step < 3000; step++ {
			k := LockKey{Tab: uint32(rng.Intn(len(tables))), Row: rows[rng.Intn(len(rows))]}
			l := &tables[k.Tab]
			p := uint64(1 + rng.Intn(priorities))
			if blocked[p] {
				continue // a parked transaction issues nothing
			}
			if h := held[k]; h == p && rng.Intn(2) == 0 {
				// The holder releases; its parked waiter, if any, must
				// still be blocked and then take the lock in both tables.
				c := waiter[k]
				if c != nil && c.returned() {
					t.Fatalf("seed %d step %d: %s returned before its holder %d released", seed, step, c.describe, h)
				}
				l.Release(k.Row)
				lt.Release(k)
				delete(held, k)
				if c == nil {
					if w := l.word(k.Row).Load(); w != 0 {
						t.Fatalf("seed %d step %d: word after release = %#x, want 0", seed, step, w)
					}
					continue
				}
				words, oracle := c.results(t)
				if words != nil || oracle != nil {
					t.Fatalf("seed %d step %d: %s after release: lock words %v, map table %v, want nil", seed, step, c.describe, words, oracle)
				}
				delete(waiter, k)
				delete(blocked, c.p)
				held[k] = c.p
				continue
			}
			var want error
			wait := false
			switch h := held[k]; {
			case h == 0:
				held[k] = p
			case h == p:
			case h < p:
				want, dies = ErrDie, dies+1
			default:
				if waiter[k] != nil {
					continue // a second waiter would race the first for the lock
				}
				wait = true
			}
			c := startAcquire(l, lt, k, p)
			if !wait {
				words, oracle := c.results(t)
				if !errors.Is(oracle, want) || oracle != words {
					t.Fatalf("seed %d step %d: %s: lock words %v, map table %v, want %v", seed, step, c.describe, words, oracle, want)
				}
				continue
			}
			// Both requesters must park: the word gets its waiting bit,
			// the map entry its waiter.
			deadline := time.Now().Add(10 * time.Second)
			for l.word(k.Row).Load()&waiting == 0 || lt.state(k).waiters == 0 {
				if c.returned() {
					w, o := c.results(t)
					t.Fatalf("seed %d step %d: %s returned (lock words %v, map table %v) while priority %d holds the lock", seed, step, c.describe, w, o, held[k])
				}
				if time.Now().After(deadline) {
					t.Fatalf("seed %d step %d: %s never parked within 10 s", seed, step, c.describe)
				}
				runtime.Gosched()
			}
			waiter[k], blocked[p] = c, true
			waits++
		}
		// Drain: release every holder, waking the parked in turn.
		for len(held) > 0 {
			for k, h := range held {
				if blocked[h] {
					continue
				}
				tables[k.Tab].Release(k.Row)
				lt.Release(k)
				delete(held, k)
				if c := waiter[k]; c != nil {
					if words, oracle := c.results(t); words != nil || oracle != nil {
						t.Fatalf("seed %d drain: %s: lock words %v, map table %v, want nil", seed, c.describe, words, oracle)
					}
					delete(waiter, k)
					delete(blocked, c.p)
					held[k] = c.p
				}
			}
		}
		for tab := range tables {
			for _, row := range rows {
				if w := tables[tab].word(row); w != nil && w.Load() != 0 {
					t.Fatalf("seed %d: table %d row %d word %#x after every release", seed, tab, row, w.Load())
				}
			}
		}
	}
	if waits == 0 || dies == 0 {
		t.Fatalf("the sequences parked %d calls and died %d: both paths must be driven", waits, dies)
	}
	t.Logf("%d calls parked, %d died", waits, dies)
}

// TestLockWordsExclude: goroutines of distinct priorities each lock two
// rows — across two tables and lock blocks, sometimes the same row twice —
// increment a plain counter per row, and release both, restarting on
// ErrDie as a transaction would. Under -race any two holders at once are a
// reported race, and every lost increment shows in the totals.
func TestLockWordsExclude(t *testing.T) {
	const workers, rounds = 6, 400
	rows := []int64{0, 1, 1024}
	var tables [2]Locks
	var counts [2][3]int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			p := uint64(g + 1)
			for i := 0; i < rounds; i++ {
				a, b := rng.Intn(len(rows)), rng.Intn(len(rows))
				ta, tb := rng.Intn(len(tables)), rng.Intn(len(tables))
				for {
					if tables[ta].Acquire(rows[a], p) != nil {
						runtime.Gosched()
						continue
					}
					if tables[tb].Acquire(rows[b], p) != nil {
						tables[ta].Release(rows[a])
						runtime.Gosched()
						continue
					}
					break
				}
				counts[ta][a]++
				counts[tb][b]++
				tables[ta].Release(rows[a])
				if ta != tb || a != b {
					tables[tb].Release(rows[b])
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for tab := range counts {
		for r := range counts[tab] {
			total += counts[tab][r]
		}
	}
	if total != 2*workers*rounds {
		t.Fatalf("counted %d increments, want %d: two holders of one lock at once", total, 2*workers*rounds)
	}
}
