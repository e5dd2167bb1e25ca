package query

// The merge phase of the fused kernels: locals fold in morsel order into
// per-part totals, each part emits the rows that pass Having (only its top
// k under a Limit), and finishRes orders the result.

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
	for j, em := range e.sh.emits {
		st := &accs[em.acc]
		var v float64
		switch em.kind {
		case aggCount, aggCountIf:
			v = float64(st.count)
		case aggSum:
			v = st.sum
		case aggAvg:
			// The count lives on the shared carrier accumulator; noCount
			// sums only track their own total. An average over no rows is 0.
			if cnt := accs[em.cnt].count; cnt != 0 {
				v = st.sum / float64(cnt)
			}
		default: // aggMin, aggMax
			v = st.ext
		}
		row[e.ngroup+j] = v
	}
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

// mergeKeysPerPart is how many merged keys one merge part folds: a
// grouped merge splits into one part per this many, up to maxMergeParts.
// Below it a fold is over before a fan hands it out.
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

// MergeFan implements olap.FanMerger. A spill plan's grouped merge is a
// fan of P hash partitions, P derived from the keys its locals merge to
// (mergedKeys; one part per mergeKeysPerPart, and a dense plan's merge is
// one part). A part owns the keys whose radix maps to it. It folds them
// from every local in morsel order into a table presized from its share
// of that count, applies Having over its arena, and emits only what it
// keeps: all survivors, or under an OrderBy with a Limit the top k of
// them, by the olap.Order finishRes sorts with. Every group's
// accumulators see the locals in morsel order whichever goroutine runs
// its part, so float totals are bitwise identical to one serial fold,
// which is what P = 1 is. Every global winner is among its own part's
// top k, so finishRes picks and orders the result from the parts' rows
// alone.
//
//htap:deterministic
func (e *fexec) MergeFan(locals []olap.Local, fan olap.Fan) olap.Result {
	c := e.c
	res := olap.Result{Cols: c.outCols}
	w := e.ngroup + len(e.sh.emits)
	if e.gkind == gNone {
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
	}
	n := mergedKeys(locals)
	np := 1 // a dense plan's few keys fold in one part
	if e.gkind == gSpill {
		np = min(max(n/mergeKeysPerPart, 1), maxMergeParts)
	}
	parts := make([]mergePart, np)
	fan(np, func(p int) {
		e.emitPart(e.foldPart(locals, p, np, n/np), w, &parts[p])
	})
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

// mergedKeys estimates how many keys the locals merge to: the widest
// dense array, whose cells are the dense key domain, plus the spilled
// keys. Those are the locals' summed table sizes, less as large a share
// of the excess over the widest table as the smaller of the first and
// the last table has keys the other holds too: a key domain every morsel
// revisits, like (warehouse, district) pairs, merges to about its widest
// local, and one each morsel owns, like Q18's orders, to the sum. The
// estimate sizes the merge; it never decides which keys merge.
func mergedKeys(locals []olap.Local) int {
	dense, sum, widest := 0, 0, 0
	var first, last *groupTab
	for _, li := range locals {
		ll := li.(*flocal)
		dense = max(dense, len(ll.flatIF), len(ll.present))
		if t := ll.tab; t != nil && len(t.keys) > 0 {
			sum, widest = sum+len(t.keys), max(widest, len(t.keys))
			if first == nil {
				first = t
			}
			last = t
		}
	}
	if first == nil {
		return dense
	}
	if len(first.keys) > len(last.keys) {
		first, last = last, first
	}
	recur := 0
	for i := range first.keys {
		if last.has(&first.keys[i]) {
			recur++
		}
	}
	return dense + sum - (sum-widest)*recur/len(first.keys)
}

// foldPart folds part p's keys of every local, in morsel order, into a
// table sized for hint keys. With one part it folds every key; only a
// spill plan, whose keys are all in the locals' tables, has more. A
// dense plan's cells and spilled keys are disjoint groups, so its cells
// fold first, apart.
//
//htap:deterministic
func (e *fexec) foldPart(locals []olap.Local, p, np, hint int) *groupTab {
	total := newGroupTab(e.nacc, max(e.ngroup, 1), hint)
	if e.gkind == gDense {
		e.foldCells(locals, total)
	}
	for _, li := range locals {
		if tab := li.(*flocal).tab; tab != nil {
			for i := range tab.keys {
				if np == 1 || partOf(tab.rad[i], np) == p {
					e.mergeInto(total.lookup(&tab.keys[i]), tab.arena[i*e.nacc:(i+1)*e.nacc])
				}
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

// emitPart renders a part's merged groups that pass Having, w words a
// row, into one slab: under an OrderBy with a Limit below the group count
// a TopK keeps the best limit rows and the slab holds limit+1 of them
// (the spare takes the next candidate); otherwise every survivor is
// emitted.
//
//htap:deterministic
func (e *fexec) emitPart(total *groupTab, w int, out *mergePart) {
	c := e.c
	slot := func(slab []float64, i int) []float64 { return slab[i*w : (i+1)*w : (i+1)*w] }
	accs := func(i int) []acc { return total.arena[i*e.nacc : (i+1)*e.nacc] }
	if k := c.limit; c.ordered && k > 0 && k < len(total.keys) {
		slab := make([]float64, (k+1)*w)
		top := olap.NewTopK(c.order, k, make([][]float64, 0, k))
		next, row := 0, slot(slab, 0)
		for i := range total.keys {
			e.emitInto(row, &total.keys[i], accs(i))
			if !e.keep(row) {
				continue
			}
			out.kept++
			if row = top.Offer(row); row == nil {
				next++
				row = slot(slab, next)
			}
		}
		out.rows = top.Rows()
		return
	}
	slab := make([]float64, len(total.keys)*w)
	for i := range total.keys {
		row := slot(slab, out.kept)
		e.emitInto(row, &total.keys[i], accs(i))
		if e.keep(row) {
			out.kept++
		}
	}
	out.rows = make([][]float64, out.kept)
	for i := range out.rows {
		out.rows[i] = slot(slab, i)
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
