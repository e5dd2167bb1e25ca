package query

// The aggregate phase of the kernels: per-morsel accumulator state, the
// spill group table, and the vector loop that folds a block into a local
// (its filter and probe stages are in probe.go).

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
// touch.
func (t *groupTab) lookup(k *gkey) []acc {
	off := t.offset(k)
	return t.arena[off : off+t.nacc]
}

// offset returns the arena offset of key k's accumulator row, creating
// the row zeroed on first touch (CountIf semantics require groups to
// exist even when every condition fails). Growth amortizes to zero per
// morsel once the table has seen the key domain.
//
//htap:coldpath
func (t *groupTab) offset(k *gkey) int {
	full := hashGK(k, t.nkey)
	s, h := t.probe(k, full)
	if s != 0 {
		return int(s-1) * t.nacc
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
	return idx * t.nacc
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

// spillOff resolves a dense plan's key past denseLen through the
// open-addressed table, creating the table on the first such key.
//
//htap:coldpath
func (l *flocal) spillOff(k int64) int32 {
	if l.tab == nil {
		l.tab = newGroupTab(l.e.nacc, 1, 0)
	}
	return int32(l.tab.offset(&gkey{k}))
}

// vecLen is the vector length of the kernel loop: a morsel runs a vector
// of this many rows through each stage before the next vector starts.
// Small enough that a vector's columns, selection and payload words stay
// in L1, large enough that each stage's loop amortizes its setup.
const vecLen = 256

// rowIota is the selection of a vector no filter or join has narrowed:
// every row offset, ascending.
var rowIota = func() (s [vecLen]int32) {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// payStackWords is the payload width whose vectors Consume keeps on its
// stack, 32 KiB of them (a fixed array over 128 KiB would escape to the
// heap): CH's widest plan (Q7) carries seven words.
const payStackWords = 16

// widePay is the payload vectors of a plan wider than payStackWords: one
// set per consumed block, allocated by the goroutine that consumes it
// (never next to another block's).
//
//htap:coldpath
func widePay(n int) [][vecLen]int64 { return make([][vecLen]int64, n) }

// vecs is the working set of the vector in flight. A selection is the
// ascending row offsets, within the vector, of the rows still alive; each
// stage reads one and writes the next into sel. Payload vectors are
// indexed by row offset, not by selection position, so a row's words stay
// where the join put them however later stages narrow the selection.
type vecs struct {
	cols    [][]int64 // the block's columns
	nscan   int
	base, n int             // the vector's first row in the block, and its length
	pay     [][vecLen]int64 // payload words, by payload slot
	sel     [vecLen]int32
	goff    [vecLen]int32 // per selected row, its group's accumulator offset
	// A dense plan's selected rows whose keys pass denseLen, and their
	// offsets in the spill table.
	xsel, xoff [vecLen]int32
	moff       [vecLen]int // per kept row of a probe, its payload's slab offset
}

// slot returns logical slot s over the vector's rows: a fact column, or
// past the scan list a payload vector.
func (v *vecs) slot(s int) []int64 {
	if s < v.nscan {
		return v.cols[s][v.base : v.base+v.n]
	}
	return v.pay[s-v.nscan][:v.n]
}

// Consume implements olap.Local: a morsel runs a vector at a time. Each
// filter narrows the vector's selection, each join probes what is left,
// the group keys resolve to accumulator offsets, and each op runs one
// loop over the selection. Rows stay in ascending order through every
// stage, so each (group, accumulator) pair adds its floats in ascending
// row order and groups are created in the order their first rows come —
// the invariant that makes per-morsel totals bitwise reproducible. A
// warmed local consuming a same-shaped block must not allocate (the
// runtime half of this contract is alloc_regression_test.go).
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
	case specDenseSumIF:
		l.runDenseSumIF(b)
	default:
		l.consume(b)
	}
}

// consume runs the vector loop over one block. The payload vectors live
// on this goroutine's stack — nothing two workers write is ever adjacent
// — in this frame, not Consume's, so the fast loops run on a small stack.
func (l *flocal) consume(b olap.Block) {
	switch n := l.e.c.npayTotal; {
	case n == 0:
		l.run(b, nil)
	case n <= payStackWords:
		var stack [payStackWords][vecLen]int64
		l.run(b, stack[:n])
	default:
		l.run(b, widePay(n))
	}
}

// run is the vector loop over one block.
func (l *flocal) run(b olap.Block, pay [][vecLen]int64) {
	e := l.e
	v := vecs{cols: b.Cols, nscan: e.nscan, pay: pay}
	for ; v.base < b.N; v.base += vecLen {
		v.n = min(vecLen, b.N-v.base)
		sel := rowIota[:v.n]
		for fi := range e.filters {
			f := &e.filters[fi]
			sel = v.sel[:f.narrow(v.slot(f.slot), sel, v.sel[:])]
		}
		for ji := range e.joins {
			sel = v.sel[:e.joins[ji].probe(&v, sel)]
		}
		if len(sel) == 0 {
			continue
		}
		switch e.gkind {
		case gNone:
			e.updateGlobal(l.global, &v, sel)
		case gDense:
			nd, nx := l.resolveDense(&v, sel)
			if nd > 0 {
				e.updateGroups(l.flat, &v, v.sel[:nd], v.goff[:nd])
			}
			if nx > 0 {
				e.updateGroups(l.tab.arena, &v, v.xsel[:nx], v.xoff[:nx])
			}
		default:
			l.resolveSpill(&v, sel)
			e.updateGroups(l.tab.arena, &v, sel, v.goff[:len(sel)])
		}
	}
}

// resolveDense resolves the selection's group keys: a key under denseLen
// marks its cell present and keeps its row in v.sel with the cell's
// offset in v.goff; a key past it moves its row to v.xsel with its
// spill-table offset in v.xoff. It returns how many rows each side got.
// The two sides hold disjoint groups and each stays ascending, so running
// one side's ops before the other's keeps every group's row order.
func (l *flocal) resolveDense(v *vecs, sel []int32) (nd, nx int) {
	nacc := int32(l.e.nacc)
	key := v.slot(l.e.c.groups[0])
	for _, r := range sel {
		k := key[r]
		if uint64(k) >= uint64(len(l.present)) {
			if uint64(k) >= denseLen {
				v.xsel[nx], v.xoff[nx] = r, l.spillOff(k)
				nx++
				continue
			}
			l.growDense(k)
		}
		l.present[k] = true
		v.sel[nd], v.goff[nd] = r, int32(k)*nacc
		nd++
	}
	return nd, nx
}

// resolveSpill resolves the selection's composite group keys to their
// offsets in the spill table, creating groups in row order. A row whose
// key repeats the previous row's reuses its offset without hashing: rows
// of one group often come in runs (Q18's and Q3's order lines).
func (l *flocal) resolveSpill(v *vecs, sel []int32) {
	var keys [maxGroupCols][]int64
	for d, s := range l.e.c.groups {
		keys[d] = v.slot(s)
	}
	ks := keys[:l.e.ngroup]
	tab := l.tab
	var prev gkey
	off := -1
	for i, r := range sel {
		var k gkey
		for d, kv := range ks {
			k[d] = kv[r]
		}
		if off < 0 || k != prev {
			off, prev = tab.offset(&k), k
		}
		v.goff[i] = int32(off)
	}
}

// updateGlobal runs each op over the selection into an ungrouped plan's
// accumulators, the running value held in a register across the loop.
func (e *fexec) updateGlobal(accs []acc, v *vecs, sel []int32) {
	for o := range e.ops {
		op := &e.ops[o]
		st := &accs[op.acc]
		var src []int64
		if op.slot >= 0 {
			src = v.slot(int(op.slot))
		}
		switch op.op {
		case opSumInt:
			sum := st.sum
			for _, r := range sel {
				sum += float64(src[r])
			}
			st.sum = sum
		case opSumFloat:
			sum := st.sum
			for _, r := range sel {
				sum += columnar.DecodeFloat(src[r])
			}
			st.sum = sum
		case opCount:
			st.count += int64(len(sel))
		case opCountIfInt:
			n, lo, span, neg := st.count, op.lo, op.span, op.neg
			for _, r := range sel {
				if (uint64(src[r]-lo) <= span) != neg {
					n++
				}
			}
			st.count = n
		case opCountIfGen:
			for _, r := range sel {
				if op.test.match(src[r]) {
					st.count++
				}
			}
		case opMinInt, opMinFloat, opMaxInt, opMaxFloat:
			ext, seen := st.ext, st.seen
			for _, r := range sel {
				if x := op.value(src[r]); !seen || op.better(x, ext) {
					ext, seen = x, true
				}
			}
			st.ext, st.seen = ext, seen
		}
	}
}

// updateGroups runs each op over the selection: row sel[i] updates the
// accumulator row at arena[goff[i]:].
func (e *fexec) updateGroups(arena []acc, v *vecs, sel, goff []int32) {
	goff = goff[:len(sel)]
	for o := range e.ops {
		op := &e.ops[o]
		a := arena[op.acc:]
		var src []int64
		if op.slot >= 0 {
			src = v.slot(int(op.slot))
		}
		switch op.op {
		case opSumInt:
			for i, r := range sel {
				a[goff[i]].sum += float64(src[r])
			}
		case opSumFloat:
			for i, r := range sel {
				a[goff[i]].sum += columnar.DecodeFloat(src[r])
			}
		case opCount:
			for _, g := range goff {
				a[g].count++
			}
		case opCountIfInt:
			lo, span, neg := op.lo, op.span, op.neg
			for i, r := range sel {
				if (uint64(src[r]-lo) <= span) != neg {
					a[goff[i]].count++
				}
			}
		case opCountIfGen:
			for i, r := range sel {
				if op.test.match(src[r]) {
					a[goff[i]].count++
				}
			}
		case opMinInt, opMinFloat, opMaxInt, opMaxFloat:
			for i, r := range sel {
				if st, x := &a[goff[i]], op.value(src[r]); !st.seen || op.better(x, st.ext) {
					st.ext, st.seen = x, true
				}
			}
		}
	}
}

// value is a min/max op's word as the float it compares.
func (op *aggOp) value(w int64) float64 {
	if op.op == opMinFloat || op.op == opMaxFloat {
		return columnar.DecodeFloat(w)
	}
	return float64(w)
}

// better reports whether x replaces a min/max op's current extreme.
func (op *aggOp) better(x, ext float64) bool {
	if op.op == opMinInt || op.op == opMinFloat {
		return x < ext
	}
	return x > ext
}
