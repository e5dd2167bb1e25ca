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

// denseLen bounds the dense group cells: a key that resolves to a cell
// under it indexes a flat accumulator array instead of the spill table.
// A one-word key is its own cell (warehouse ids, line numbers, small
// dictionary codes), and one past denseLen spills to the table; a key of
// join payload words packs over the words' build-side ranges (Q7's
// nation pairs; see layoutGroups), which hold every word it can take.
const denseLen = 1024

// joinBlockCells is a gJoin accumulator block's width in build rows: a
// local allocates a block on the first row that resolves into it. A
// morsel's fact rows resolve to a short run of build rows (CH's order
// lines to the orders appended with them), so a few blocks cover it.
// Serially consuming Q18's order lines at SF 0.1 after 25 000 NewOrders
// read the same at 16, 64 and 256 rows a block (about 13 ms, within the
// runs' spread); at 64 the directory stays short and a stray row
// allocates few unused cells.
const joinBlockCells = 64

// joinFirstCells is how many cells a gJoin local makes room for when it
// touches its first block, about what a morsel of Q18's order lines
// fills; the arena doubles from there.
const joinFirstCells = 2048

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
// plus one []acc per group.
type groupTab struct {
	mask  uint64
	shift uint8
	slots []int32 // index+1 into keys; 0 = empty
	keys  []gkey
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
		keys: make([]gkey, 0, n), arena: make([]acc, 0, n*nacc),
		nacc: nacc, nkey: nkey,
	}
}

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
//
// A gJoin local carves its blocks from flat, one after another in the
// order it first touches them, and finds them through dir: dir[b] is 1 +
// the position in flat of the group join's entry block b, 0 while the
// block is untouched. Past dir's length, its capacity lists them the
// other way round, for the merge (blocks). So a local costs a fixed
// number of objects however many blocks it touches.
//
// The engine allocates a task's locals at once, one per morsel, so the
// struct is held to 240 bytes, a size class of its own (TestFlocalSize).
type flocal struct {
	e         *fexec
	globalBuf [4]acc
	flat      []acc   // gNone: the accumulators; gDense: flat[cell*nacc+j]; gJoin: the touched blocks' cells
	present   []bool  // gDense, gJoin: cell occupancy
	flatIF    []sumIF // specDenseSumIF: dense cells, cnt>0 = present
	tab       *groupTab
	dir       []int32 // gJoin: per entry block, 1 + its block in flat
}

// NewLocal implements olap.Exec.
func (e *fexec) NewLocal() olap.Local {
	l := &flocal{e: e}
	if e.gkind == gNone {
		if e.nacc <= len(l.globalBuf) {
			l.flat = l.globalBuf[:e.nacc]
		} else {
			l.flat = make([]acc, e.nacc)
		}
	}
	if e.gkind == gSpill {
		// Spill plans always hash: building the table here keeps the
		// per-block consume paths allocation-free (//htap:hotpath).
		l.newTab()
	}
	return l
}

// newTab creates the local's group table: a spill plan's up front, a
// dense plan's on its first key outside the cells.
//
//htap:coldpath
func (l *flocal) newTab() {
	l.tab = newGroupTab(l.e.nacc, max(l.e.ngroup, 1), 0)
}

// denseCap is the cell count a dense array grows to for cell x: a packed
// layout's every cell at once (its ranges came from the data), a one-word
// key's doubling from 16 until x fits, capped at gcells.
func (e *fexec) denseCap(x uint64) int {
	if e.ngroup > 1 {
		return e.gcells
	}
	n := 16
	for uint64(n) <= x {
		n *= 2
	}
	return min(n, e.gcells)
}

// growDense grows the flat array and its occupancy to denseCap(x).
//
//htap:coldpath
func (l *flocal) growDense(x uint64) {
	n := l.e.denseCap(x)
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
	flat := make([]sumIF, l.e.denseCap(uint64(k)))
	copy(flat, l.flatIF)
	l.flatIF = flat
}

// touchBlock gives entry block b of a gJoin plan zeroed cells at the end
// of flat, and returns 1 + the block's position in flat. The arena
// doubles when it is full (append would grow a large one by a quarter,
// copying it again every few blocks), and so does the room for blocks
// past dir's length.
//
//htap:coldpath
func (l *flocal) touchBlock(b uint32) int32 {
	nacc, n := l.e.nacc, len(l.present)
	if g, k := len(l.dir), n/joinBlockCells; g+k == cap(l.dir) {
		dir := make([]int32, g, g+min(2*k, g))
		copy(dir[:g+k], l.dir[:g+k])
		l.dir = dir
	}
	if n+joinBlockCells > cap(l.present) {
		c := max(2*cap(l.present), min(l.e.gblocks*joinBlockCells, joinFirstCells))
		flat, present := make([]acc, n*nacc, c*nacc), make([]bool, n, c)
		copy(flat, l.flat)
		copy(present, l.present)
		l.flat, l.present = flat, present
	}
	l.flat = l.flat[:(n+joinBlockCells)*nacc]
	l.present = l.present[:n+joinBlockCells]
	blocks := l.blocks()
	blocks[len(blocks)-1] = int32(b)
	l.dir[b] = int32(len(blocks))
	return l.dir[b]
}

// newDir makes a gJoin local's block directory, on its first consumed
// block rather than in NewLocal, so the engine's back-to-back locals stay
// small. Its capacity has room past its length for as many blocks as the
// arena's first cells hold.
//
//htap:coldpath
func (l *flocal) newDir() {
	g := l.e.gblocks
	l.dir = make([]int32, g, g+min(g, joinFirstCells/joinBlockCells))
}

// blocks lists a gJoin local's touched entry blocks in the order it
// carved them from flat, one per joinBlockCells cells of present: the
// words of dir's capacity past its length.
func (l *flocal) blocks() []int32 {
	n := len(l.dir)
	return l.dir[n : n+len(l.present)/joinBlockCells]
}

// spillOff resolves a dense plan's key past denseLen through the
// open-addressed table, creating the table on the first such key.
//
//htap:coldpath
func (l *flocal) spillOff(k int64) int32 {
	if l.tab == nil {
		l.newTab()
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
	// A dense plan's selected rows whose keys fall outside its cells, and
	// their offsets in the spill table.
	xsel, xoff [vecLen]int32
	brow       [vecLen]int32 // per kept row of a probe, the build row it resolved to
	ent        [vecLen]int32 // gJoin: per row offset, the group join's build row
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
	if e.spec == specDenseSumIF {
		l.runDenseSumIF(b)
		return
	}
	l.consume(b)
}

// consume runs the vector loop over one block. The payload vectors live
// on this goroutine's stack — nothing two workers write is ever adjacent
// — in this frame, not Consume's, so the fast loop runs on a small stack.
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
			e.updateGlobal(l.flat, &v, sel)
		case gDense:
			nd, nx := l.resolveDense(&v, sel)
			if nd > 0 {
				e.updateGroups(l.flat, &v, v.sel[:nd], v.goff[:nd])
			}
			if nx > 0 {
				e.updateGroups(l.tab.arena, &v, v.xsel[:nx], v.xoff[:nx])
			}
		case gJoin:
			l.resolveJoin(&v, sel)
			e.updateGroups(l.flat, &v, sel, v.goff[:len(sel)])
		default:
			l.resolveSpill(&v, sel, &v.goff)
			e.updateGroups(l.tab.arena, &v, sel, v.goff[:len(sel)])
		}
	}
}

// resolveDense resolves the selection's group keys: a key inside the
// cells marks its cell present and keeps its row in v.sel with the cell's
// offset in v.goff; a key outside them moves its row to v.xsel with its
// spill-table offset in v.xoff. It returns how many rows each side got.
// The two sides hold disjoint groups and each stays ascending, so running
// one side's ops before the other's keeps every group's row order. A
// packed key never leaves its cells (resolvePacked), so only a one-word
// key spills.
func (l *flocal) resolveDense(v *vecs, sel []int32) (nd, nx int) {
	e := l.e
	if e.ngroup > 1 {
		l.resolvePacked(v, sel)
		return len(sel), 0
	}
	nacc := int32(e.nacc)
	key, lo, span := v.slot(e.c.groups[0]), e.glo[0], e.gspan[0]
	for _, r := range sel {
		x := uint64(key[r] - lo)
		if x >= uint64(len(l.present)) {
			if x >= span {
				v.xsel[nx] = r
				nx++
				continue
			}
			l.growDense(x)
		}
		l.present[x] = true
		v.sel[nd], v.goff[nd] = r, int32(x)*nacc
		nd++
	}
	if nx > 0 {
		if l.tab == nil {
			l.newTab()
		}
		l.resolveSpill(v, v.xsel[:nx], &v.xoff)
	}
	return nd, nx
}

// resolvePacked resolves a packed composite key a word at a time: one
// subtract and multiply-add per row and word into v.goff, then one pass
// that marks the cells present. Each word is gathered from the build side
// whose payDomain laid out its range, so none can lie outside it; one
// that does is a layout defect, and resolvePacked panics before it marks
// a cell.
func (l *flocal) resolvePacked(v *vecs, sel []int32) {
	e := l.e
	if l.present == nil {
		l.growDense(0)
	}
	cells := v.goff[:len(sel)]
	clear(cells)
	for d := range e.ngroup {
		kv, lo, stride := v.slot(e.c.groups[d]), e.glo[d], e.gstride[d]
		var far uint64
		for i, r := range sel {
			x := uint64(kv[r] - lo)
			far = max(far, x)
			cells[i] += int32(x * stride)
		}
		if far >= e.gspan[d] {
			panic("query: a packed group word lies outside the range its build side's payDomain holds")
		}
	}
	nacc, present := int32(e.nacc), l.present
	for i, c := range cells {
		present[c] = true
		cells[i] = c * nacc
	}
	copy(v.sel[:], sel)
}

// resolveJoin resolves the selection's groups from the entries the group
// join recorded: entry x lives in cell x%joinBlockCells of block
// x/joinBlockCells, which the local carves from flat on its first row.
func (l *flocal) resolveJoin(v *vecs, sel []int32) {
	if l.dir == nil {
		l.newDir()
	}
	nacc := int32(l.e.nacc)
	for i, r := range sel {
		x := uint32(v.ent[r])
		at := l.dir[x/joinBlockCells]
		if at == 0 {
			at = l.touchBlock(x / joinBlockCells)
		}
		cell := (at-1)*joinBlockCells + int32(x%joinBlockCells)
		l.present[cell] = true
		v.goff[i] = cell * nacc
	}
}

// resolveSpill resolves the group keys of rows sel to their offsets in
// the spill table, into goff, creating groups in row order. A row whose
// key repeats the previous row's reuses its offset without hashing: rows
// of one group often come in runs (Q18's and Q3's order lines).
func (l *flocal) resolveSpill(v *vecs, sel []int32, goff *[vecLen]int32) {
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
		goff[i] = int32(off)
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
