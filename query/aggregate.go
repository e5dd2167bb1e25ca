package query

// The aggregate phase of the fused kernels: per-morsel accumulator state,
// the spill group table, and the single-pass loops that fold a block into
// a local.

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

// gkey is a composite group key (unused trailing slots stay zero; the key
// width is fixed per plan so they never collide).
type gkey [maxGroupCols]int64

// denseLen bounds the dense fast path for single-column group keys: keys
// in [0, denseLen) index a flat accumulator array instead of a hash map
// (warehouse ids, line numbers, small dictionary codes); larger keys
// spill to the hash table.
const denseLen = 1024

// acc is one aggregate's partial state. Sum and Avg use sum+count, Min/Max
// use ext+seen, Count uses count alone.
type acc struct {
	sum   float64
	ext   float64
	count int64
	seen  bool
}

// groupTab is per-local spill group state: an open-addressed index over
// insertion-ordered keys, with all accumulator rows packed in one arena
// at stride nacc — one growable allocation each instead of one map entry
// plus one []acc per group. rad[i] is key i's merge radix (see radixOf),
// kept so that a merge part picks out its own keys without hashing them.
type groupTab struct {
	mask  uint64
	shift uint8
	slots []int32 // index+1 into keys; 0 = empty
	keys  []gkey
	rad   []uint8
	arena []acc
	nacc  int
	nkey  int
}

// newGroupTab returns an empty table with room for n keys before it
// grows (64 slots at least).
func newGroupTab(nacc, nkey, n int) *groupTab {
	slots, shift := 64, uint8(58)
	for slots*3 < n*4 {
		slots, shift = slots*2, shift-1
	}
	return &groupTab{
		mask: uint64(slots - 1), shift: shift, slots: make([]int32, slots),
		keys: make([]gkey, 0, n), rad: make([]uint8, 0, n), arena: make([]acc, 0, n*nacc),
		nacc: nacc, nkey: nkey,
	}
}

// radixOf is a group hash's merge radix: bits 24–31, which no table
// indexes by (tables take the top bits), so one merge part's keys still
// spread over every slot of its table.
func radixOf(h uint64) uint8 { return uint8(h >> 24) }

// partOf maps a merge radix to one of np parts.
func partOf(rad uint8, np int) int { return int(rad) * np >> 8 }

// probe follows key k's probe sequence from its hash: it returns k's
// slot value (index+1, or 0 when k is absent) and the slot it ends at.
func (t *groupTab) probe(k *gkey, full uint64) (int32, uint64) {
	h := full >> t.shift
	for {
		if s := t.slots[h]; s == 0 || t.keys[s-1] == *k {
			return s, h
		}
		h = (h + 1) & t.mask
	}
}

// has reports whether key k is in the table.
func (t *groupTab) has(k *gkey) bool {
	s, _ := t.probe(k, hashGK(k, t.nkey))
	return s != 0
}

func (t *groupTab) grow() {
	n := len(t.slots) * 2
	slots := make([]int32, n)
	mask := uint64(n - 1)
	t.shift--
	for i := range t.keys {
		h := hashGK(&t.keys[i], t.nkey) >> t.shift
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i + 1)
	}
	t.slots, t.mask = slots, mask
}

// lookup returns key k's accumulator row, creating it zeroed on first
// touch (CountIf semantics require groups to exist even when every
// condition fails). Growth amortizes to zero per morsel once the table
// has seen the key domain.
//
//htap:coldpath
func (t *groupTab) lookup(k *gkey) []acc {
	full := hashGK(k, t.nkey)
	s, h := t.probe(k, full)
	if s != 0 {
		off := int(s-1) * t.nacc
		return t.arena[off : off+t.nacc]
	}
	if (len(t.keys)+1)*4 > len(t.slots)*3 {
		t.grow()
		h = full >> t.shift
		for t.slots[h] != 0 {
			h = (h + 1) & t.mask
		}
	}
	idx := len(t.keys)
	t.keys = append(t.keys, *k)
	t.rad = append(t.rad, radixOf(full))
	// One zero acc at a time: append(arena, make([]acc, nacc)...) only skips
	// its temporary without -race, and the alloc budgets hold under both.
	for range t.nacc {
		t.arena = append(t.arena, acc{})
	}
	t.slots[h] = int32(idx + 1)
	off := idx * t.nacc
	return t.arena[off : off+t.nacc]
}

// sumIF is specDenseSumIF's dense group cell: int-sum, float-sum and
// the shared count packed into 24 bytes — the same layout a hand-written
// sum/sum/count kernel uses, one address computation per row.
type sumIF struct {
	qty, amt float64
	cnt      int64
}

// flocal is per-morsel fused state: accumulators and nothing else. The
// engine creates a task's locals back to back, so anything a local owned
// that a worker wrote per row would share cache lines with its
// neighbours'. Group storage allocates lazily, by the goroutine that
// consumes the morsel, and grows with the keys the morsel actually
// touches; a warmed local consuming a same-shaped block allocates nothing.
type flocal struct {
	e         *fexec
	globalBuf [4]acc
	global    []acc   // gNone
	flat      []acc   // gDense: flat[key*nacc+j]
	present   []bool  // gDense occupancy
	flatIF    []sumIF // specDenseSumIF: dense cells, cnt>0 = present
	tab       *groupTab
}

// NewLocal implements olap.Exec.
func (e *fexec) NewLocal() olap.Local {
	l := &flocal{e: e}
	if e.gkind == gNone {
		if e.nacc <= len(l.globalBuf) {
			l.global = l.globalBuf[:e.nacc]
		} else {
			l.global = make([]acc, e.nacc)
		}
	}
	if e.gkind == gSpill {
		// Spill plans always hash: building the table here keeps the
		// per-block consume paths allocation-free (//htap:hotpath).
		l.tab = newGroupTab(e.nacc, max(e.ngroup, 1), 0)
	}
	return l
}

// denseCap is the cell count a dense array grows to for key k: doubling
// from 16 until k fits, capped at denseLen (keys past the cap go through
// lookupTab).
func denseCap(k int64) int {
	n := 16
	for n <= int(k) {
		n *= 2
	}
	return min(n, denseLen)
}

// growDense grows the flat array and its occupancy to denseCap(k).
//
//htap:coldpath
func (l *flocal) growDense(k int64) {
	n := denseCap(k)
	flat := make([]acc, n*l.e.nacc)
	copy(flat, l.flat)
	present := make([]bool, n)
	copy(present, l.present)
	l.flat, l.present = flat, present
}

// growIF grows the specDenseSumIF cell array to denseCap(k).
//
//htap:coldpath
func (l *flocal) growIF(k int64) {
	flat := make([]sumIF, denseCap(k))
	copy(flat, l.flatIF)
	l.flatIF = flat
}

// lookupTab resolves a spilled key through the open-addressed table,
// creating the table on a dense plan's first overflow key.
//
//htap:coldpath
func (l *flocal) lookupTab(k gkey) []acc {
	if l.tab == nil {
		l.tab = newGroupTab(l.e.nacc, max(l.e.ngroup, 1), 0)
	}
	return l.tab.lookup(&k)
}

// payStackWords is the payload width Consume gathers on its stack; CH's
// widest plan (Q7) carries seven words.
const payStackWords = 16

// widePay is the gather buffer of a plan wider than payStackWords: one
// per consumed block, allocated by the goroutine that consumes it (never
// next to another block's).
//
//htap:coldpath
func widePay(n int) []int64 { return make([]int64, n) }

// Consume implements olap.Local: one pass over the block, filter →
// probe → group → accumulate per row. The loop splits per grouping kind
// so the group-resolve branch is hoisted; the filters, the probe and the
// accumulator updates are one call each per surviving row. A warmed local
// consuming a same-shaped block must not allocate (the runtime half of
// this contract is alloc_regression_test.go).
//
//htap:hotpath
func (l *flocal) Consume(b olap.Block) {
	e := l.e
	if e.never || b.N == 0 {
		return
	}
	switch e.spec {
	case specGlobalSumF2:
		l.runGlobalSumF2(b)
	case specGlobalSemiSumF:
		l.runGlobalSemiSumF(b)
	case specDenseSumIF:
		l.runDenseSumIF(b)
	case specSpillSumF:
		l.runSpillSumF(b)
	default:
		// A multi-join plan gathers each row's payload words on this
		// goroutine's stack: nothing two workers write is ever adjacent.
		var stack [payStackWords]int64
		buf := stack[:]
		if n := e.c.npayTotal; n > len(stack) {
			buf = widePay(n)
		}
		switch e.gkind {
		case gNone:
			l.consumeGlobal(b, buf)
		case gDense:
			l.consumeDense(b, buf)
		default:
			l.consumeSpill(b, buf)
		}
	}
}

// update applies every specialized op to row i's accumulator row. Rows
// arrive in ascending order, so each (group, accumulator) pair adds its
// floats in ascending row order — the invariant that makes per-morsel
// totals bitwise reproducible.
func (e *fexec) update(accs []acc, cols [][]int64, pay []int64, i int) {
	for o := range e.ops {
		op := &e.ops[o]
		st := &accs[op.acc]
		var w int64
		if op.pay {
			w = pay[op.slot]
		} else {
			w = cols[op.slot][i]
		}
		switch op.op {
		case opSumInt:
			st.sum += float64(w)
			st.count++
		case opSumFloat:
			st.sum += columnar.DecodeFloat(w)
			st.count++
		case opSumIntNC:
			st.sum += float64(w)
		case opSumFloatNC:
			st.sum += columnar.DecodeFloat(w)
		case opCount:
			st.count++
		case opCountIfRange:
			if w >= op.lo && w <= op.hi {
				st.count++
			}
		case opCountIfGen:
			if op.test.match(w) {
				st.count++
			}
		case opMinInt:
			if v := float64(w); !st.seen || v < st.ext {
				st.ext, st.seen = v, true
			}
		case opMinFloat:
			if v := columnar.DecodeFloat(w); !st.seen || v < st.ext {
				st.ext, st.seen = v, true
			}
		case opMaxInt:
			if v := float64(w); !st.seen || v > st.ext {
				st.ext, st.seen = v, true
			}
		case opMaxFloat:
			if v := columnar.DecodeFloat(w); !st.seen || v > st.ext {
				st.ext, st.seen = v, true
			}
		}
	}
}

func (l *flocal) consumeGlobal(b olap.Block, buf []int64) {
	e := l.e
	cols := b.Cols
	accs := l.global
	pr := prober{e.joins, cols, buf, e.nscan}
	joined := len(e.joins) > 0
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		var pay []int64
		if joined {
			var ok bool
			if pay, ok = pr.probe(i); !ok {
				continue
			}
		}
		e.update(accs, cols, pay, i)
	}
}

func (l *flocal) consumeDense(b olap.Block, buf []int64) {
	e := l.e
	cols := b.Cols
	nacc := e.nacc
	g := &e.gsrc[0]
	var kvec []int64
	if !g.pay {
		kvec = cols[g.idx]
	}
	pr := prober{e.joins, cols, buf, e.nscan}
	joined := len(e.joins) > 0
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		var pay []int64
		if joined {
			var ok bool
			if pay, ok = pr.probe(i); !ok {
				continue
			}
		}
		var k int64
		if g.pay {
			k = pay[g.idx]
		} else {
			k = kvec[i]
		}
		var accs []acc
		if uint64(k) < denseLen {
			if int(k) >= len(l.present) {
				l.growDense(k)
			}
			l.present[k] = true
			accs = l.flat[int(k)*nacc:]
		} else {
			accs = l.lookupTab(gkey{k})
		}
		e.update(accs, cols, pay, i)
	}
}

func (l *flocal) consumeSpill(b olap.Block, buf []int64) {
	e := l.e
	cols := b.Cols
	gs := e.gsrc[:e.ngroup]
	pr := prober{e.joins, cols, buf, e.nscan}
	joined := len(e.joins) > 0
	for i := 0; i < b.N; i++ {
		if !e.filterRow(cols, i) {
			continue
		}
		var pay []int64
		if joined {
			var ok bool
			if pay, ok = pr.probe(i); !ok {
				continue
			}
		}
		var k gkey
		for d := range gs {
			g := &gs[d]
			if g.pay {
				k[d] = pay[g.idx]
			} else {
				k[d] = cols[g.idx][i]
			}
		}
		e.update(l.lookupTab(k), cols, pay, i)
	}
}
