// Package rowblock is the chunk directory under the words the OLTP storage
// manager keeps beside every record (§3.2): the twin instances' column
// cells (columnar.Words), the update-indication bits (bitset.Atomic) and
// the MV2PL record locks (txn.Locks). Readers touch those words without a
// lock while the directory that finds them grows.
//
// A Blocks is a directory of chunks, each a []T, published through an
// atomic pointer. Publishing is the only operation that takes a lock, and
// only publishers take it: under it Publish copies the directory, sets
// slots of the copy and stores the new pointer. A published directory is
// therefore never written again, and a chunk never moves: a reader may
// load the directory (Dir), index it and touch a word of a chunk without
// synchronizing with anyone, and a chunk it holds stays where it is
// however the directory changes afterwards — a chunk replaced in a slot
// is only unlisted, never rewritten by Publish. How the words inside a
// chunk are read and written (atomically, or plainly where no writer
// runs) is up to the user.
package rowblock

import (
	"sync"
	"sync/atomic"
)

// Blocks is a directory of []T chunks. The zero value is an empty
// directory, ready to use.
type Blocks[T any] struct {
	dir atomic.Pointer[[][]T]
	mu  sync.Mutex // serializes publishers; readers never take it
}

// Dir returns the published directory, whose nil slots are chunks never
// set. The caller must not write to it.
//
//htap:hotpath
func (b *Blocks[T]) Dir() [][]T {
	if p := b.dir.Load(); p != nil {
		return *p
	}
	return nil
}

// Publish sets each slot i of [lo, hi) to set(i, old), old being the chunk
// the directory lists there (nil for an empty slot or one past its end),
// and publishes a copy of the directory, at least hi long, that lists the
// results. If set returns old for every slot nothing is published.
// Publishers run one at a time, so set sees old as no one else is changing
// it; set runs under b's lock and must not publish to b. Publish returns
// the directory current on return.
//
//htap:coldpath
func (b *Blocks[T]) Publish(lo, hi int, set func(i int, old []T) []T) [][]T {
	if lo >= hi {
		return b.Dir()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.Dir()
	dir := make([][]T, max(len(old), hi))
	copy(dir, old)
	changed := false
	for i := lo; i < hi; i++ {
		if c := set(i, dir[i]); len(c) != len(dir[i]) || len(c) > 0 && &c[0] != &dir[i][0] {
			dir[i], changed = c, true
		}
	}
	if !changed {
		return old
	}
	b.dir.Store(&dir)
	return dir
}
