package oltp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"elastichtap/internal/rowblock"
)

// Key packs a primary key of up to three components, most significant
// first, into the word a KeyIndex resolves: a in the top 16 bits, b in the
// next 8 and c in the low 40; a component wider than its field spills
// into the next. A key with fewer components passes 0 for the ones it
// lacks.
func Key(a, b, c int64) uint64 { return uint64(a)<<48 | uint64(b)<<cBits | uint64(c) }

const (
	cBits = 40
	cMask = 1<<cBits - 1

	// An append index stores a group's rows in chunks of 1 << chunkBits.
	chunkBits = 8
	chunkMask = 1<<chunkBits - 1
)

// Dim is the domain of one key component: the values [Lo, Lo+Span).
type Dim struct{ Lo, Span int64 }

// ErrMisplacedRow reports a table row that is not where its key index
// needs it: outside the key domain, away from the row its key's
// arithmetic names, or an appended id that leaves a gap or repeats one.
var ErrMisplacedRow = errors.New("oltp: row out of place for its key index")

// KeyIndex resolves a table's primary keys (packed by Key) to row ids
// without hashing or locking. It takes the place of the paper's cuckoo
// hash index (§3.2) for tables whose keys are dense, in one of two forms.
//
//   - Arithmetic: the table holds one row per key of its domain, in key
//     order, so key (a, b, c) sits at row
//     ((a−Lo_a)·Span_b + b−Lo_b)·Span_c + c−Lo_c. The index holds no
//     memory.
//   - Append: keys group by (a, b), and each group's c runs from a base
//     without gaps, in the order Put adds them. A group is a row-id array
//     indexed by c − base, grown a chunk at a time and published after
//     the store, so a Get is one load.
type KeyIndex struct {
	// lo is Key of the lower bounds. A component resolves when its offset
	// from its bound is below its span, and a key's position is
	// a·strideA + b·strideB + c in offsets. An append index's strideB is
	// 1 << 40, so a position is its group's number times 1 << 40 plus the
	// id's offset in the group.
	lo                  uint64
	spanA, spanB, spanC uint64
	strideA, strideB    uint64
	groups              []group // nil for the arithmetic form
}

// group is one append-index group: rows[i] is the row of id base+i for
// i < n. Puts to a group must not run concurrently; Gets may run beside
// them.
type group struct {
	n    atomic.Uint64
	rows rowblock.Blocks[uint64]
}

// NewKeyIndex builds the index of a table of rows rows, whose row r has
// the key components key(r), over the domain d[0] × d[1] × d[2]. With
// d[2].Span zero it is an append index, each group's ids running from
// d[2].Lo and filled from the rows in row order; otherwise it is an
// arithmetic index, and the table must hold its whole domain in key
// order. A row that breaks its form is an error wrapping ErrMisplacedRow.
func NewKeyIndex(d [3]Dim, rows int64, key func(row int64) [3]int64) (*KeyIndex, error) {
	hi := [3]int64{d[0].Lo + d[0].Span, d[1].Lo + d[1].Span, d[2].Lo + d[2].Span}
	for j, w := range [3]int64{1 << 16, 1 << 8, 1 << cBits} {
		if d[j].Lo < 0 || d[j].Span < 0 || hi[j] > w {
			return nil, fmt.Errorf("oltp: key component %d's domain %v does not fit its %d values", j, d[j], w)
		}
	}
	x := &KeyIndex{
		lo:    Key(d[0].Lo, d[1].Lo, d[2].Lo),
		spanA: uint64(d[0].Span), spanB: uint64(d[1].Span), spanC: uint64(d[2].Span),
		strideB: uint64(d[2].Span),
	}
	if d[2].Span == 0 {
		hi[2] = 1 << cBits
		x.spanC, x.strideB = uint64(hi[2]-d[2].Lo), 1<<cBits
		x.groups = make([]group, d[0].Span*d[1].Span)
	} else if n := d[0].Span * d[1].Span * d[2].Span; rows != n {
		return nil, fmt.Errorf("%w: %d rows for a key domain of %d", ErrMisplacedRow, rows, n)
	}
	x.strideA = x.spanB * x.strideB
	for r := range rows {
		k := key(r)
		// The components are checked before they are packed, so that one
		// out of its field cannot pass for another key.
		for j, v := range k {
			if v < d[j].Lo || v >= hi[j] {
				return nil, fmt.Errorf("%w: row %d has key %v outside the domain %v", ErrMisplacedRow, r, k, d)
			}
		}
		pos, _ := x.resolve(Key(k[0], k[1], k[2]))
		if x.groups == nil && pos != uint64(r) {
			return nil, fmt.Errorf("%w: row %d has key %v, which belongs at row %d", ErrMisplacedRow, r, k, pos)
		}
		if x.groups == nil {
			continue
		}
		if g := &x.groups[pos>>cBits]; pos&cMask != g.n.Load() || !g.put(pos&cMask, uint64(r)) {
			return nil, fmt.Errorf("%w: row %d has key %v, but its group's next id is %d",
				ErrMisplacedRow, r, k, d[2].Lo+int64(g.n.Load()))
		}
	}
	return x, nil
}

// Get returns the row of key.
//
//htap:hotpath
func (x *KeyIndex) Get(key uint64) (uint64, bool) {
	pos, ok := x.resolve(key)
	if !ok || x.groups == nil {
		return pos, ok
	}
	return x.groups[pos>>cBits].get(pos & cMask)
}

// resolve is the arithmetic: key's position in the domain, or false for a
// key outside it. One subtraction takes every lower bound off. A
// component below its bound wraps, within its field, past its span (a
// domain fits its field), so one compare per component checks both ends;
// the borrow it passes to the component above only matters to a key that
// already misses.
func (x *KeyIndex) resolve(key uint64) (uint64, bool) {
	u := key - x.lo
	a, b, c := u>>48, u>>cBits&0xff, u&cMask
	if a >= x.spanA || b >= x.spanB || c >= x.spanC {
		return 0, false
	}
	return a*x.strideA + b*x.strideB + c, true
}

// get returns the row of the group's id base+i.
func (g *group) get(i uint64) (uint64, bool) {
	if i >= g.n.Load() {
		return 0, false
	}
	return g.rows.Dir()[i>>chunkBits][i&chunkMask], true
}

// Len returns the number of keys the index resolves.
func (x *KeyIndex) Len() int {
	if x.groups == nil {
		return int(x.spanA * x.spanB * x.spanC)
	}
	n := 0
	for i := range x.groups {
		n += int(x.groups[i].n.Load())
	}
	return n
}

// Put stores row as the row of key in an append index: an id already
// present is overwritten, the group's next id is appended. It refuses,
// returning false, an id past the next (which would leave a gap), a key
// outside the group domain, and any key of an arithmetic index. Puts to
// one group must be serialized by the caller (CH's NewOrder holds the
// district's lock); a Get of an id being overwritten must not run beside
// the Put.
func (x *KeyIndex) Put(key, row uint64) bool {
	pos, ok := x.resolve(key)
	return ok && x.groups != nil && x.groups[pos>>cBits].put(pos&cMask, row)
}

func (g *group) put(i, row uint64) bool {
	n := g.n.Load()
	if i > n {
		return false
	}
	dir := g.rows.Dir()
	if c := int(i >> chunkBits); c >= len(dir) {
		dir = g.rows.Publish(c, c+1, func(_ int, old []uint64) []uint64 {
			if old == nil {
				old = make([]uint64, 1<<chunkBits)
			}
			return old
		})
	}
	dir[i>>chunkBits][i&chunkMask] = row
	if i == n {
		g.n.Store(n + 1) // publishes the store above to Get
	}
	return true
}
