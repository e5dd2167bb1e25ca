// Package bitset provides a concurrency-safe, growable bitmap used for the
// per-record update-indication bits of the OLTP storage manager (§3.2).
// Bits are set by transaction workers at commit time and cleared by the RDE
// engine during instance synchronization, so all accesses use atomics.
package bitset

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	wordBits = 64
	// chunkWords is the number of words per storage chunk (4 KiB, 32 Ki
	// bits). Words live in chunks so that growing never moves one: a bit
	// set while the bitmap grows lands in the same word either way.
	chunkWords = 512
	chunkBits  = chunkWords * wordBits
)

// Atomic is a bitmap whose Set/Clear/Test operations are safe for
// concurrent use and take no lock: the chunk directory is an immutable
// slice published through an atomic pointer, as columnar.Words publishes
// its own, and a bit operation is one atomic access to a word that never
// moves. Only growth locks (growMu, growers only): it copies the
// directory, appends zeroed chunks, publishes it and then raises the
// logical length, so an index below the length always has its chunk.
type Atomic struct {
	dir    atomic.Pointer[[][]uint64]
	n      atomic.Int64 // logical length in bits; only grows
	growMu sync.Mutex
}

// New returns a bitmap with capacity for n bits, all zero.
func New(n int) *Atomic {
	b := &Atomic{}
	b.dir.Store(new([][]uint64))
	b.Grow(n)
	return b
}

// Len returns the logical size of the bitmap in bits.
func (b *Atomic) Len() int { return int(b.n.Load()) }

// Grow extends the bitmap to hold at least n bits (new bits are zero).
//
//htap:coldpath
func (b *Atomic) Grow(n int) {
	b.growMu.Lock()
	defer b.growMu.Unlock()
	if int64(n) <= b.n.Load() {
		return
	}
	old := *b.dir.Load()
	if need := (n + chunkBits - 1) / chunkBits; need > len(old) {
		dir := make([][]uint64, need)
		copy(dir, old)
		for i := len(old); i < need; i++ {
			dir[i] = make([]uint64, chunkWords)
		}
		b.dir.Store(&dir)
	}
	b.n.Store(int64(n))
}

// word returns the address of word wi, which must lie below the length.
func (b *Atomic) word(wi int) *uint64 {
	return &(*b.dir.Load())[wi/chunkWords][wi%chunkWords]
}

// Set sets bit i, growing the bitmap if needed. It reports whether the bit
// transitioned from 0 to 1.
//
//htap:hotpath
func (b *Atomic) Set(i int) bool {
	if i < 0 {
		return false
	}
	if int64(i) >= b.n.Load() {
		b.Grow(i + 1)
	}
	mask := uint64(1) << (i % wordBits)
	return orWord(b.word(i/wordBits), mask)&mask == 0
}

// Clear clears bit i. It reports whether the bit transitioned from 1 to 0.
func (b *Atomic) Clear(i int) bool {
	if i < 0 || int64(i) >= b.n.Load() {
		return false
	}
	mask := uint64(1) << (i % wordBits)
	return andWord(b.word(i/wordBits), ^mask)&mask != 0
}

// orWord and andWord are CAS-loop equivalents of atomic.{Or,And}Uint64,
// which the toolchain in use miscompiles (clobbered register across the
// intrinsic's internal retry loop).
func orWord(addr *uint64, mask uint64) (old uint64) {
	for {
		old = atomic.LoadUint64(addr)
		if old&mask == mask || atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return old
		}
	}
}

func andWord(addr *uint64, mask uint64) (old uint64) {
	for {
		old = atomic.LoadUint64(addr)
		if old == old&mask || atomic.CompareAndSwapUint64(addr, old, old&mask) {
			return old
		}
	}
}

// Test reports whether bit i is set.
func (b *Atomic) Test(i int) bool {
	if i < 0 || int64(i) >= b.n.Load() {
		return false
	}
	return atomic.LoadUint64(b.word(i/wordBits))&(uint64(1)<<(i%wordBits)) != 0
}

// words calls fn with the address of every word holding bits below the
// length as of the call, in ascending order, until fn returns false.
func (b *Atomic) words(fn func(wi int, w *uint64) bool) {
	n := int(b.n.Load())
	dir := *b.dir.Load()
	for wi, end := 0, (n+wordBits-1)/wordBits; wi < end; wi++ {
		if !fn(wi, &dir[wi/chunkWords][wi%chunkWords]) {
			return
		}
	}
}

// Count returns the number of set bits.
func (b *Atomic) Count() int { return b.CountBelow(b.Len()) }

// CountBelow returns the number of set bits in [0, limit): a popcount a
// word at a time, the last word masked. Bits at or above limit are never
// read into the result, so setters and clearers up there cannot move it;
// below limit it sees the same weakly consistent view as ForEachSet.
func (b *Atomic) CountBelow(limit int) int {
	if n := int(b.n.Load()); limit > n {
		limit = n
	}
	if limit <= 0 {
		return 0
	}
	dir := *b.dir.Load()
	full := limit / wordBits
	c := 0
	for wi := 0; wi < full; wi++ {
		c += bits.OnesCount64(atomic.LoadUint64(&dir[wi/chunkWords][wi%chunkWords]))
	}
	if rem := limit % wordBits; rem != 0 {
		w := atomic.LoadUint64(&dir[full/chunkWords][full%chunkWords])
		c += bits.OnesCount64(w & (uint64(1)<<rem - 1))
	}
	return c
}

// ForEachSet calls fn for every set bit in ascending order. The iteration
// sees a weakly consistent view under concurrent mutation, which matches
// the RDE's needs: bits set after the scan started may or may not be seen.
func (b *Atomic) ForEachSet(fn func(i int)) {
	b.words(func(wi int, addr *uint64) bool {
		for w := atomic.LoadUint64(addr); w != 0; w &= w - 1 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
		}
		return true
	})
}

// DrainSet atomically claims and clears set bits, invoking fn once per
// claimed bit. It is the primitive behind the RDE's "copy the record, then
// clear the corresponding bit" sync loop (§3.4 S2): concurrent setters
// after the claim are preserved for the next sync.
func (b *Atomic) DrainSet(fn func(i int)) int {
	drained := 0
	b.words(func(wi int, addr *uint64) bool {
		if atomic.LoadUint64(addr) == 0 {
			return true // most words are clean: do not write them
		}
		for w := atomic.SwapUint64(addr, 0); w != 0; w &= w - 1 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			drained++
		}
		return true
	})
	return drained
}
