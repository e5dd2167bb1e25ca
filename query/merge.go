package query

// The merge phase of the fused kernels: locals fold in morsel order into
// totals (a group join's into per-part totals), each part emits the rows
// that pass Having (only its top k under a Limit), and finishRes orders
// the result.

import "elastichtap/internal/olap"

// mergeInto folds one local's accumulator row into the running total,
// per physical accumulator kind.
//
//htap:deterministic
func (e *fexec) mergeInto(dst, src []acc) {
	for i := range e.sh.accs {
		switch e.sh.accs[i].kind {
		case facSum:
			dst[i].sum += src[i].sum
			dst[i].count += src[i].count
		case facCount, facCountIf:
			dst[i].count += src[i].count
		case facMin:
			if src[i].seen && (!dst[i].seen || src[i].ext < dst[i].ext) {
				dst[i].ext, dst[i].seen = src[i].ext, true
			}
		case facMax:
			if src[i].seen && (!dst[i].seen || src[i].ext > dst[i].ext) {
				dst[i].ext, dst[i].seen = src[i].ext, true
			}
		}
	}
}

// emitInto renders one output row from a merged accumulator row through
// the shape's emit mapping: the group key's words, then each aggregate.
//
//htap:deterministic
func (e *fexec) emitInto(row []float64, k *gkey, accs []acc) {
	for d := 0; d < e.ngroup; d++ {
		row[d] = float64(k[d])
	}
	for j := range e.sh.emits {
		row[e.ngroup+j] = e.emitValue(j, accs)
	}
}

// emitValue is output aggregate j of a merged accumulator row.
func (e *fexec) emitValue(j int, accs []acc) float64 {
	em := &e.sh.emits[j]
	st := &accs[em.acc]
	switch em.kind {
	case aggCount, aggCountIf:
		return float64(st.count)
	case aggSum:
		return st.sum
	case aggAvg:
		// The count lives on the shared carrier accumulator; noCount sums
		// only track their own total. An average over no rows is 0.
		if cnt := accs[em.cnt].count; cnt != 0 {
			return st.sum / float64(cnt)
		}
		return 0
	}
	return st.ext // aggMin, aggMax
}

// keep reports whether an emitted row passes every Having predicate.
func (e *fexec) keep(row []float64) bool {
	for i := range e.c.having {
		h := &e.c.having[i]
		if !h.fmatch(row[h.slot]) {
			return false
		}
	}
	return true
}

// mergeKeysPerPart is how many group-join entries one merge part folds: a
// gJoin merge splits into one part per this many, up to maxMergeParts.
// Below it a fold is over before a fan hands it out. No other merge
// splits.
const (
	mergeKeysPerPart = 1 << 13
	maxMergeParts    = 16
)

// mergePart is what one merge part hands back: its emitted rows (all of
// its Having survivors, or only their top k) and the survivor count.
type mergePart struct {
	rows [][]float64
	kept int
}

// Merge implements olap.Exec: MergeFan with every part run in turn on the
// calling goroutine.
//
//htap:deterministic
func (e *fexec) Merge(locals []olap.Local) olap.Result {
	return e.MergeFan(locals, olap.SerialFan)
}

// MergeFan implements olap.FanMerger. Only a gJoin plan's grouped merge
// fans out: its P parts are contiguous ranges of its group join's
// entries (mergeJoin), each owning a disjoint share of the groups. Any
// other grouped merge is one part, run on the calling goroutine:
// foldPart folds every local in morsel order into one group table, and
// emitPart renders it through one sink. A part applies Having as it
// renders its groups and keeps only what passes: all survivors, or under
// an OrderBy with a Limit the top k of them, by the olap.Order finishRes
// sorts with. Every group's accumulators see the locals in morsel order
// whichever goroutine runs its part, so float totals are bitwise
// identical to one serial fold. Every global winner is among its own
// part's top k, so finishRes picks and orders the result from the parts'
// rows alone.
//
//htap:deterministic
func (e *fexec) MergeFan(locals []olap.Local, fan olap.Fan) olap.Result {
	c := e.c
	res := olap.Result{Cols: c.outCols}
	w := e.ngroup + len(e.sh.emits)
	switch e.gkind {
	case gNone:
		total := make([]acc, e.nacc)
		for _, li := range locals {
			e.mergeInto(total, li.(*flocal).global)
		}
		row := make([]float64, w)
		e.emitInto(row, &gkey{}, total)
		kept := 0
		if e.keep(row) {
			res.Rows, kept = [][]float64{row}, 1
		}
		return finishRes(c, res, kept)
	case gDense, gSpill:
		var part mergePart
		e.emitPart(e.foldPart(locals), w, &part)
		res.Rows = part.rows
		return finishRes(c, res, part.kept)
	}
	parts := e.mergeJoin(locals, fan, w)
	rows, kept := 0, 0
	for p := range parts {
		rows, kept = rows+len(parts[p].rows), kept+parts[p].kept
	}
	res.Rows = make([][]float64, 0, rows)
	for p := range parts {
		res.Rows = append(res.Rows, parts[p].rows...)
	}
	return finishRes(c, res, kept)
}

// mergeJoin is a gJoin plan's grouped merge. It lists, for each block of
// the group join's entries, the locals that touched it, in morsel order,
// and cuts the touched blocks, in entry order, into P contiguous parts of
// equal length, one per mergeKeysPerPart entries they hold (up to
// maxMergeParts). A part takes its blocks in turn: it folds each block's
// occupied cells from those locals into one block of totals, and renders
// the groups of the cells some local occupied, each key decoded from its
// entry (entryKey) once its aggregates show it may be kept (sink.admits).
// No group is hashed, and a part holds one block of totals at a time.
//
//htap:deterministic
func (e *fexec) mergeJoin(locals []olap.Local, fan olap.Fan, w int) []mergePart {
	// Block b's locals are who[start[b]:start[b+1]]: count them, sum the
	// counts up, fill each block's run with start[b] as its cursor, which
	// leaves start[b] where start[b+1] began, and shift start back.
	start := make([]int32, e.gblocks+1)
	for _, li := range locals {
		for _, b := range li.(*flocal).blocks {
			start[b+1]++
		}
	}
	var blocks []int
	for b := range e.gblocks {
		if start[b+1] > 0 {
			blocks = append(blocks, b)
		}
		start[b+1] += start[b]
	}
	who := make([]int32, start[e.gblocks])
	for i, li := range locals {
		for _, b := range li.(*flocal).blocks {
			who[start[b]] = int32(i)
			start[b]++
		}
	}
	copy(start[1:], start[:e.gblocks])
	start[0] = 0
	np := min(max(len(blocks)*joinBlockCells/mergeKeysPerPart, 1), maxMergeParts)
	parts := make([]mergePart, np)
	nacc := e.nacc
	keyAt := e.joins[e.gjoin].keyAt()
	fan(np, func(p int) {
		own := blocks[p*len(blocks)/np : (p+1)*len(blocks)/np]
		out := e.newSink(w, len(own)*joinBlockCells)
		total, on := make([]acc, joinBlockCells*nacc), make([]bool, joinBlockCells)
		for _, b := range own {
			clear(total)
			clear(on)
			for _, li := range who[start[b]:start[b+1]] {
				ll := locals[li].(*flocal)
				base := int(ll.dir[b]-1) * joinBlockCells
				for c, occupied := range ll.present[base : base+joinBlockCells] {
					if occupied {
						at := (base + c) * nacc
						e.mergeInto(total[c*nacc:(c+1)*nacc], ll.flat[at:at+nacc])
						on[c] = true
					}
				}
			}
			for c, occupied := range on {
				if accs := total[c*nacc : (c+1)*nacc]; occupied && out.admits(accs) {
					k := e.entryKey(b*joinBlockCells+c, keyAt)
					out.offer(&k, accs)
				}
			}
		}
		out.finish(&parts[p])
	})
	return parts
}

// foldPart folds a spill or dense plan's merge, its one part: every
// local, in morsel order, into a table presized for the widest local's
// keys (its cells, or its table's keys). A dense plan's cells and spilled
// keys are disjoint groups, so its cells fold first, apart.
//
//htap:deterministic
func (e *fexec) foldPart(locals []olap.Local) *groupTab {
	n := 0
	for _, li := range locals {
		ll := li.(*flocal)
		n = max(n, len(ll.present), len(ll.flatIF))
		if ll.tab != nil {
			n = max(n, len(ll.tab.keys))
		}
	}
	total := newGroupTab(e.nacc, max(e.ngroup, 1), n)
	if e.gkind == gDense {
		e.foldCells(locals, total)
	}
	for _, li := range locals {
		if tab := li.(*flocal).tab; tab != nil {
			for i := range tab.keys {
				e.mergeInto(total.lookup(&tab.keys[i]), tab.arena[i*e.nacc:(i+1)*e.nacc])
			}
		}
	}
	return total
}

// foldCells folds every local's dense cells, in morsel order, into one
// cell array, then gives each occupied cell's group to total: one key
// decode and one hash per group, not per group and local.
//
//htap:deterministic
func (e *fexec) foldCells(locals []olap.Local, total *groupTab) {
	n := 0
	for _, li := range locals {
		ll := li.(*flocal)
		n = max(n, len(ll.present), len(ll.flatIF))
	}
	if n == 0 {
		return
	}
	nacc := e.nacc
	cells, on := make([]acc, n*nacc), make([]bool, n)
	for _, li := range locals {
		ll := li.(*flocal)
		// specDenseSumIF keeps its dense cells in 24-byte sumIF form with
		// no occupancy stores: the shared count is unconditional, so
		// cnt>0 is exactly the generic dense path's present bit, and the
		// fold below adds the same values in the same order.
		for c := range ll.flatIF {
			if g := &ll.flatIF[c]; g.cnt > 0 {
				a := cells[c*nacc:]
				a[0].sum += g.qty
				a[0].count += g.cnt
				a[1].sum += g.amt
				on[c] = true
			}
		}
		for c, p := range ll.present {
			if p {
				e.mergeInto(cells[c*nacc:(c+1)*nacc], ll.flat[c*nacc:(c+1)*nacc])
				on[c] = true
			}
		}
	}
	for c, p := range on {
		if p {
			k := e.cellKey(c)
			copy(total.lookup(&k), cells[c*nacc:(c+1)*nacc])
		}
	}
}

// cellKey decodes a dense cell back into its group key.
func (e *fexec) cellKey(cell int) (k gkey) {
	for d := 0; d < e.ngroup; d++ {
		k[d] = e.glo[d] + int64(uint64(cell)/e.gstride[d]%e.gspan[d])
	}
	return k
}

// emitPart renders a spill or dense plan's merged groups through a sink.
//
//htap:deterministic
func (e *fexec) emitPart(total *groupTab, w int, out *mergePart) {
	s := e.newSink(w, len(total.keys))
	for i := range total.keys {
		if accs := total.arena[i*e.nacc : (i+1)*e.nacc]; s.admits(accs) {
			s.offer(&total.keys[i], accs)
		}
	}
	s.finish(out)
}

// sink renders a merge part's groups, w words a row, into one slab and
// keeps the rows that pass Having: under an OrderBy with a Limit below
// the part's groups a TopK keeps the best limit rows and the slab holds
// limit+1 of them (the spare takes the next candidate); otherwise every
// survivor stays, and the slab has a row for each group.
//
// A group goes through admits, on its accumulators alone, before its key
// is rendered. Every row the TopK hands back — displaced, or refused —
// ranks behind the row it now holds last, so the best order value among
// them bounds that row's from behind; a group whose order value (an
// aggregate) is strictly behind the bound cannot be kept, and a group
// that passes Having is counted as a survivor without being rendered.
type sink struct {
	e     *fexec
	w     int
	slab  []float64
	topk  bool
	top   olap.TopK
	spare []float64 // under a TopK, the slab row the next group renders into
	next  int       // the spare's slab row
	kept  int
	// aggsOnly is set when every Having predicate is on an aggregate, so
	// admits decides Having alone.
	aggsOnly bool
	// bounded is set once the TopK handed back a row, and bound is the
	// best order value among those rows; both stay unset when the order
	// column is a group word.
	bounded bool
	bound   float64
}

// newSink returns a sink for a part of at most groups groups.
func (e *fexec) newSink(w, groups int) sink {
	s := sink{e: e, w: w, aggsOnly: true}
	for i := range e.c.having {
		s.aggsOnly = s.aggsOnly && e.c.having[i].slot >= e.ngroup
	}
	n := groups
	if k := e.c.limit; e.c.ordered && k > 0 && k < groups {
		s.topk, n = true, k+1
		s.top = olap.NewTopK(e.c.order, k, make([][]float64, 0, k))
	}
	s.slab = make([]float64, n*w)
	if s.topk {
		s.spare = s.slot(0)
	}
	return s
}

func (s *sink) slot(i int) []float64 { return s.slab[i*s.w : (i+1)*s.w : (i+1)*s.w] }

// admits reports whether the group with merged accumulators accs still
// needs its row rendered: it passes the Having predicates on aggregates,
// and it is not strictly behind the bound.
//
//htap:deterministic
func (s *sink) admits(accs []acc) bool {
	e := s.e
	for i := range e.c.having {
		h := &e.c.having[i]
		if h.slot >= e.ngroup && !h.fmatch(e.emitValue(h.slot-e.ngroup, accs)) {
			return false
		}
	}
	if !s.bounded || !s.aggsOnly {
		return true
	}
	ord := e.c.order
	v := e.emitValue(ord.Col-e.ngroup, accs)
	if (ord.Desc && v < s.bound) || (!ord.Desc && v > s.bound) {
		s.kept++
		return false
	}
	return true
}

// offer renders group k from its merged accumulators and keeps the row
// when it passes Having; admits has passed it.
//
//htap:deterministic
func (s *sink) offer(k *gkey, accs []acc) {
	row := s.spare
	if !s.topk {
		row = s.slot(s.kept)
	}
	s.e.emitInto(row, k, accs)
	if !s.aggsOnly && !s.e.keep(row) {
		return
	}
	s.kept++
	if !s.topk {
		return
	}
	back := s.top.Offer(row)
	if back == nil {
		s.next++
		s.spare = s.slot(s.next)
		return
	}
	s.spare = back
	if ord := s.e.c.order; ord.Col >= s.e.ngroup {
		if v := back[ord.Col]; !s.bounded || (ord.Desc && v > s.bound) || (!ord.Desc && v < s.bound) {
			s.bounded, s.bound = true, v
		}
	}
}

// finish hands the kept rows and the survivor count to out.
func (s *sink) finish(out *mergePart) {
	out.kept = s.kept
	if s.topk {
		out.rows = s.top.Rows()
		return
	}
	out.rows = make([][]float64, s.kept)
	for i := range out.rows {
		out.rows[i] = s.slot(i)
	}
}

// finishRes is the one place a fused result is ordered. The merge has
// applied Having already and emitted kept survivors (SortedRows, the cost
// model's sort charge, counts them all even when only a top k was
// emitted). It sorts every grouped result: under the plan's Order and
// limit when it has an OrderBy, otherwise under olap.Order{} — group keys
// lead each row and ties fall to the next column, so on distinct keys
// that is ascending key order.
//
//htap:deterministic
func finishRes(c *Compiled, res olap.Result, kept int) olap.Result {
	switch {
	case c.ordered:
		res.SortedRows = int64(kept)
		res.Rows = olap.SortRows(res.Rows, c.order, c.limit)
	case len(c.groups) > 0:
		res.Rows = olap.SortRows(res.Rows, olap.Order{}, 0)
	}
	return res
}
