// Package cuckoo implements a bucketized cuckoo hash table (Pagh & Rodler)
// mapping uint64 keys to uint64 values. The OLTP engine uses it as the
// primary index: "the index always points to the last updated record in
// either of the two instances" (§3.2). Lookups probe at most two buckets;
// inserts displace entries along a bounded random walk and resize on
// failure.
package cuckoo

import "sync"

const (
	bucketSlots  = 4
	maxKicks     = 500
	minBuckets   = 8
	maxLoadGrow  = 0.94 // resize eagerly past this load factor
	growthFactor = 2
)

type bucket struct {
	occupied [bucketSlots]bool
	keys     [bucketSlots]uint64
	vals     [bucketSlots]uint64
}

// Table is a cuckoo hash table. It is safe for concurrent use; a single
// RWMutex guards the structure, which matches the paper's engine where the
// index is read-mostly from transaction workers.
type Table struct {
	mu      sync.RWMutex
	buckets []bucket
	mask    uint64
	size    int
	seed1   uint64
	seed2   uint64
	kickSt  uint64 // deterministic displacement "random" walk state
}

// New returns an empty table with capacity for at least hint entries.
func New(hint int) *Table {
	n := minBuckets
	for n*bucketSlots < hint {
		n *= growthFactor
	}
	t := &Table{
		buckets: make([]bucket, n),
		mask:    uint64(n - 1),
		seed1:   0x9e3779b97f4a7c15,
		seed2:   0xc2b2ae3d27d4eb4f,
		kickSt:  0x853c49e6748fea9b,
	}
	return t
}

func mix(x, seed uint64) uint64 {
	x ^= seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *Table) h1(key uint64) uint64 { return mix(key, t.seed1) & t.mask }
func (t *Table) h2(key uint64) uint64 { return mix(key, t.seed2) & t.mask }

// Len returns the number of stored entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// LoadFactor returns size / capacity.
func (t *Table) LoadFactor() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return float64(t.size) / float64(len(t.buckets)*bucketSlots)
}

// Get returns the value stored for key.
func (t *Table) Get(key uint64) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.get(key)
}

func (t *Table) get(key uint64) (uint64, bool) {
	for _, h := range [2]uint64{t.h1(key), t.h2(key)} {
		b := &t.buckets[h]
		for i := 0; i < bucketSlots; i++ {
			if b.occupied[i] && b.keys[i] == key {
				return b.vals[i], true
			}
		}
	}
	return 0, false
}

// Put inserts or updates the value for key.
func (t *Table) Put(key, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.put(key, val)
}

func (t *Table) put(key, val uint64) {
	// Update in place if present.
	for _, h := range [2]uint64{t.h1(key), t.h2(key)} {
		b := &t.buckets[h]
		for i := 0; i < bucketSlots; i++ {
			if b.occupied[i] && b.keys[i] == key {
				b.vals[i] = val
				return
			}
		}
	}
	if float64(t.size+1) > maxLoadGrow*float64(len(t.buckets)*bucketSlots) {
		t.grow()
	}
	k, v := key, val
	for {
		ok, hk, hv := t.insertFresh(k, v)
		if ok {
			break
		}
		// The walk failed: the table holds every prior entry except the
		// final homeless victim (hk, hv). Grow, then place the victim.
		t.grow()
		k, v = hk, hv
	}
	t.size++
}

// insertFresh places a key known to be absent, displacing entries along a
// bounded walk. On failure (maxKicks displacements without finding a free
// slot) it returns the final homeless entry, which the caller must place
// after resizing — dropping it would lose a previously stored key.
func (t *Table) insertFresh(key, val uint64) (ok bool, homelessKey, homelessVal uint64) {
	h := t.h1(key)
	for kick := 0; kick < maxKicks; kick++ {
		b := &t.buckets[h]
		for i := 0; i < bucketSlots; i++ {
			if !b.occupied[i] {
				b.occupied[i] = true
				b.keys[i] = key
				b.vals[i] = val
				return true, 0, 0
			}
		}
		alt := t.h1(key)
		if alt == h {
			alt = t.h2(key)
		}
		b2 := &t.buckets[alt]
		for i := 0; i < bucketSlots; i++ {
			if !b2.occupied[i] {
				b2.occupied[i] = true
				b2.keys[i] = key
				b2.vals[i] = val
				return true, 0, 0
			}
		}
		// Both buckets full: evict a pseudo-random victim from h.
		t.kickSt = t.kickSt*6364136223846793005 + 1442695040888963407
		slot := int(t.kickSt>>59) % bucketSlots
		key, b.keys[slot] = b.keys[slot], key
		val, b.vals[slot] = b.vals[slot], val
		// Move the evicted key toward its other bucket.
		if t.h1(key) == h {
			h = t.h2(key)
		} else {
			h = t.h1(key)
		}
	}
	return false, key, val
}

func (t *Table) grow() {
	old := t.buckets
	n := len(old) * growthFactor
	for {
		t.buckets = make([]bucket, n)
		t.mask = uint64(n - 1)
		ok := true
	rehash:
		for bi := range old {
			b := &old[bi]
			for i := 0; i < bucketSlots; i++ {
				if !b.occupied[i] {
					continue
				}
				// A failed walk during rehash is harmless: the partially
				// filled new table is discarded and rebuilt bigger from the
				// untouched old buckets.
				if placed, _, _ := t.insertFresh(b.keys[i], b.vals[i]); !placed {
					ok = false
					break rehash
				}
			}
		}
		if ok {
			return
		}
		n *= growthFactor
	}
}
