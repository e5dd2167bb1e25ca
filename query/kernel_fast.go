package query

// A monomorphic fast loop for the hottest scan shape, CH-Q1's. The vector
// loop in aggregate.go finishes each stage over a vector before the next
// starts, and gives each accumulator a cell of its own; this loop fuses
// filter, group and accumulate into one pass over one packed cell per
// group — filter bounds, column vectors and the cells live in locals and
// the op sequence is fixed — so the compiled code matches what a
// hand-written kernel for the same query would be. Every other plan runs
// the vector loop, Q6's ungrouped sum included: the quantity brackets the
// workloads draw pass about half the rows at random, where a fused loop's
// per-row branch mispredicts and the vector loop's branch-free filter
// does not.
//
// The spec only applies when the Prepare-time shape matches exactly
// (grouping kind, op sequence, one int range filter, no joins). It
// updates accumulators in ascending row order, as the vector loop does,
// so results are bit-identical either way.

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

const (
	specGeneric uint8 = iota
	// specDenseSumIF: dense single-key grouping on a scanned column, no
	// join, one int range filter, int-sum + float-sum accumulators
	// (CH-Q1's shape).
	specDenseSumIF
)

// pickSpec matches the specialized kernel against the Prepare-time
// shape; filters must already be classified.
func (e *fexec) pickSpec() uint8 {
	ops := e.ops
	if len(e.c.joins) == 0 && e.gkind == gDense && e.ngroup == 1 &&
		len(e.filters) == 1 && e.filters[0].kind == fIntRange &&
		len(ops) == 3 && ops[0].op == opSumInt && ops[1].op == opCount && ops[1].acc == ops[0].acc &&
		ops[2].op == opSumFloat {
		return specDenseSumIF
	}
	return specGeneric
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
