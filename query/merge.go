package query

// The merge phase of the fused kernels: locals fold in morsel order into
// one total, the total emits its rows, and finishRes applies Having and
// orders the result.

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

// emitRow renders one output row from a merged accumulator row through
// the shape's emit mapping.
//
//htap:deterministic
func (e *fexec) emitRow(k gkey, accs []acc) []float64 {
	row := make([]float64, 0, e.ngroup+len(e.sh.emits))
	for d := 0; d < e.ngroup; d++ {
		row = append(row, float64(k[d]))
	}
	for _, em := range e.sh.emits {
		st := &accs[em.acc]
		switch em.kind {
		case aggCount, aggCountIf:
			row = append(row, float64(st.count))
		case aggSum:
			row = append(row, st.sum)
		case aggAvg:
			// The count lives on the shared carrier accumulator; noCount
			// sums only track their own total.
			if cnt := accs[em.cnt].count; cnt == 0 {
				row = append(row, 0)
			} else {
				row = append(row, st.sum/float64(cnt))
			}
		default: // aggMin, aggMax
			row = append(row, st.ext)
		}
	}
	return row
}

// Merge implements olap.Exec. The engine passes locals in morsel order and
// totals accumulate in that order, so every float total is bitwise
// identical under any stealing or resize interleaving. Grouped rows emit
// in the order the merged table first saw their keys; finishRes then
// drops rows by Having and orders the survivors, over fully merged values.
//
//htap:deterministic
func (e *fexec) Merge(locals []olap.Local) olap.Result {
	c := e.c
	res := olap.Result{Cols: c.outCols}
	if e.gkind == gNone {
		total := make([]acc, e.nacc)
		for _, li := range locals {
			e.mergeInto(total, li.(*flocal).global)
		}
		res.Rows = [][]float64{e.emitRow(gkey{}, total)}
		return finishRes(c, res)
	}
	// Totals accumulate in another open-addressed table: one growable
	// arena instead of a map entry plus an []acc per group. Locals are
	// visited in morsel order and each group's accumulator row merges in
	// that order, so float totals stay bitwise deterministic.
	total := newGroupTab(e.nacc, max(e.ngroup, 1))
	for _, li := range locals {
		ll := li.(*flocal)
		// specDenseSumIF keeps its dense cells in 24-byte sumIF form with
		// no occupancy stores: the shared count is unconditional, so
		// cnt>0 is exactly the generic dense path's present bit, and the
		// fold below adds the same values in the same ascending-key order.
		for kv := range ll.flatIF {
			g := &ll.flatIF[kv]
			if g.cnt > 0 {
				accs := total.lookup(&gkey{int64(kv)})
				accs[0].sum += g.qty
				accs[0].count += g.cnt
				accs[1].sum += g.amt
			}
		}
		if ll.flat != nil {
			for kv, on := range ll.present {
				if on {
					e.mergeInto(total.lookup(&gkey{int64(kv)}), ll.flat[kv*e.nacc:(kv+1)*e.nacc])
				}
			}
		}
		if ll.tab != nil {
			for i := range ll.tab.keys {
				e.mergeInto(total.lookup(&ll.tab.keys[i]), ll.tab.arena[i*e.nacc:(i+1)*e.nacc])
			}
		}
	}
	res.Rows = make([][]float64, 0, len(total.keys))
	for i := range total.keys {
		off := i * e.nacc
		res.Rows = append(res.Rows, e.emitRow(total.keys[i], total.arena[off:off+e.nacc]))
	}
	return finishRes(c, res)
}

// finishRes is the one place a fused result is ordered. It applies Having
// over the emitted rows, then sorts every grouped result: under the plan's
// Order and limit when it has an OrderBy (SortedRows is the cost model's
// sort charge), otherwise under olap.Order{} — group keys lead each row and
// ties fall to the next column, so on distinct keys that is ascending key
// order.
//
//htap:deterministic
func finishRes(c *Compiled, res olap.Result) olap.Result {
	if len(c.having) > 0 {
		kept := res.Rows[:0]
	rows:
		for _, row := range res.Rows {
			for i := range c.having {
				h := &c.having[i]
				if !h.fmatch(row[h.slot]) {
					continue rows
				}
			}
			kept = append(kept, row)
		}
		res.Rows = kept
	}
	switch {
	case c.ordered:
		res.SortedRows = int64(len(res.Rows))
		res.Rows = olap.SortRows(res.Rows, c.order, c.limit)
	case len(c.groups) > 0:
		res.Rows = olap.SortRows(res.Rows, olap.Order{}, 0)
	}
	return res
}
