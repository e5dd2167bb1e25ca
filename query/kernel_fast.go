package query

// Monomorphic fast loops for the two hottest scan shapes, CH-Q6's and
// CH-Q1's. The vector loop in aggregate.go finishes each stage over a
// vector before the next starts, so the add chain of a float sum, which
// bounds both queries, cannot hide the filter's work; these loops fuse
// filter, group and accumulate into one pass — filter bounds, column
// vectors and accumulator registers live in locals and the op sequence
// is fixed — so the compiled code matches what a hand-written kernel for
// the same query would be. Every other plan runs the vector loop.
//
// A spec only applies when the Prepare-time shape matches exactly
// (grouping kind, op sequence, range-filter count, no joins). Both order
// accumulator updates in ascending row order, so results are
// bit-identical either way.

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

const (
	specGeneric uint8 = iota
	// specGlobalSumF2: ungrouped, no join, exactly two int range filters,
	// one counted float-sum accumulator (CH-Q6's shape).
	specGlobalSumF2
	// specDenseSumIF: dense single-key grouping on a scanned column, no
	// join, one int range filter, int-sum + float-sum accumulators
	// (CH-Q1's shape).
	specDenseSumIF
)

// pickSpec matches the specialized kernels against the Prepare-time
// shape; filters must already be classified.
func (e *fexec) pickSpec() uint8 {
	if len(e.c.joins) > 0 {
		return specGeneric
	}
	for i := range e.filters {
		if e.filters[i].kind != fIntRange {
			return specGeneric
		}
	}
	ops := e.ops
	switch {
	case e.gkind == gNone && len(e.filters) == 2 && len(ops) == 2 &&
		ops[0].op == opSumFloat && ops[1].op == opCount && ops[1].acc == ops[0].acc:
		return specGlobalSumF2
	case e.gkind == gDense && len(e.filters) == 1 && len(ops) == 3 &&
		ops[0].op == opSumInt && ops[1].op == opCount && ops[1].acc == ops[0].acc &&
		ops[2].op == opSumFloat:
		return specDenseSumIF
	}
	return specGeneric
}

// runGlobalSumF2 is Q6's loop: two range brackets, register-accumulated
// float sum and row count.
func (l *flocal) runGlobalSumF2(b olap.Block) {
	e := l.e
	cols := b.Cols
	f0, f1 := &e.filters[0], &e.filters[1]
	v0, lo0, span0 := cols[f0.slot], f0.ilo, uint64(f0.ihi-f0.ilo)
	v1, lo1, span1 := cols[f1.slot], f1.ilo, uint64(f1.ihi-f1.ilo)
	av := cols[e.ops[0].slot]
	st := &l.global[0]
	sum, cnt := st.sum, st.count
	for i := 0; i < b.N; i++ {
		if uint64(v0[i]-lo0) > span0 {
			continue
		}
		if uint64(v1[i]-lo1) > span1 {
			continue
		}
		sum += columnar.DecodeFloat(av[i])
		cnt++
	}
	st.sum, st.count = sum, cnt
}

// runDenseSumIF is Q1's loop: one range bracket, dense single-key
// grouping, int-sum + float-sum + shared count packed into one 24-byte
// cell per group (every accumulator sees the same rows, so one count
// serves both; Merge treats cnt>0 as present for this spec). The hot
// path per row is one compare, one bounds check and one cell update —
// the same work as the hand-written kernel.
func (l *flocal) runDenseSumIF(b olap.Block) {
	e := l.e
	cols := b.Cols
	f0 := &e.filters[0]
	v0, lo0, span0 := cols[f0.slot], f0.ilo, uint64(f0.ihi-f0.ilo)
	kv := cols[e.c.groups[0]]
	qv := cols[e.ops[0].slot]
	av := cols[e.ops[2].slot]
	flat := l.flatIF
	for i := 0; i < b.N; i++ {
		if uint64(v0[i]-lo0) > span0 {
			continue
		}
		k := kv[i]
		if uint64(k) < uint64(len(flat)) {
			g := &flat[k]
			g.qty += float64(qv[i])
			g.amt += columnar.DecodeFloat(av[i])
			g.cnt++
		} else if uint64(k) < denseLen {
			l.growIF(k)
			flat = l.flatIF
			g := &flat[k]
			g.qty += float64(qv[i])
			g.amt += columnar.DecodeFloat(av[i])
			g.cnt++
		} else {
			off := l.spillOff(k)
			accs := l.tab.arena[off:]
			accs[0].sum += float64(qv[i])
			accs[0].count++
			accs[1].sum += columnar.DecodeFloat(av[i])
		}
	}
}
