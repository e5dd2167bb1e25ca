package query

// Monomorphic fast loops for the hottest fused shapes. The generic
// loops in aggregate.go dispatch per row through small method calls
// and an op switch; these variants are fully inlined — filter bounds,
// column vectors and accumulator registers live in locals, the probe is
// written out, and the op sequence is fixed — so the compiled code
// matches what a hand-written kernel for the same query would be.
//
// A spec only applies when the Prepare-time shape matches exactly
// (grouping kind, join kind, op sequence, range-filter count); anything
// else runs the generic fused loops. Both orders accumulator updates in
// ascending row order, so results are bit-identical either way.

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

const (
	specGeneric uint8 = iota
	// specGlobalSumF2: ungrouped, no join, exactly two int range filters,
	// one float-sum accumulator (CH-Q6's shape).
	specGlobalSumF2
	// specGlobalSemiSumF: ungrouped, single-key semi join, one int range
	// filter, one float-sum accumulator (CH-Q19's shape).
	specGlobalSemiSumF
	// specDenseSumIF: dense single-key grouping on a scanned column, no
	// join, one int range filter, int-sum + float-sum accumulators
	// (CH-Q1's shape).
	specDenseSumIF
	// specSpillSumF: composite-key (spill) grouping, unfiltered fact
	// side, no join or composite-key payload join, one float-sum
	// accumulator (CH-Q18 and CH-Q3's shapes).
	specSpillSumF
)

// pickSpec matches the specialized kernels against the Prepare-time
// shape; filters must already be classified.
func (e *fexec) pickSpec() uint8 {
	if len(e.franges) > 0 || len(e.gens) > 0 {
		return specGeneric
	}
	ops := e.ops
	blockSumF := len(ops) == 1 && ops[0].op == opSumFloat && !ops[0].pay
	// The plan's only join, by key width: at most one of these is set.
	joins := e.c.joins
	semi1 := len(joins) == 1 && len(joins[0].keyCols) == 1 && len(joins[0].payCols) == 0
	joinK := len(joins) == 1 && len(joins[0].keyCols) > 1
	switch e.gkind {
	case gNone:
		if blockSumF && len(joins) == 0 && len(e.ranges) == 2 {
			return specGlobalSumF2
		}
		if blockSumF && semi1 && len(e.ranges) == 1 {
			return specGlobalSemiSumF
		}
	case gDense:
		if len(joins) == 0 && len(e.ranges) == 1 &&
			len(ops) == 2 && ops[0].op == opSumInt && !ops[0].pay &&
			ops[1].op == opSumFloatNC && !ops[1].pay {
			return specDenseSumIF
		}
	case gSpill:
		if blockSumF && len(e.ranges) == 0 && (len(joins) == 0 || joinK) {
			return specSpillSumF
		}
	}
	return specGeneric
}

// runGlobalSumF2 is Q6's loop: two range brackets, register-accumulated
// float sum and row count.
func (l *flocal) runGlobalSumF2(b olap.Block) {
	e := l.e
	cols := b.Cols
	v0, lo0, span0 := cols[e.ranges[0].slot], e.ranges[0].lo, uint64(e.ranges[0].hi-e.ranges[0].lo)
	v1, lo1, span1 := cols[e.ranges[1].slot], e.ranges[1].lo, uint64(e.ranges[1].hi-e.ranges[1].lo)
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

// runGlobalSemiSumF is Q19's loop: one range bracket, an inlined
// open-addressed existence probe, register-accumulated float sum.
func (l *flocal) runGlobalSemiSumF(b olap.Block) {
	e := l.e
	cols := b.Cols
	v0, lo0, span0 := cols[e.ranges[0].slot], e.ranges[0].lo, uint64(e.ranges[0].hi-e.ranges[0].lo)
	j := &e.joins[0]
	kv := cols[j.probeSlots[0]]
	av := cols[e.ops[0].slot]
	slots, mask, shift := j.j1.slots, j.j1.mask, j.j1.shift
	st := &l.global[0]
	sum, cnt := st.sum, st.count
row:
	for i := 0; i < b.N; i++ {
		if uint64(v0[i]-lo0) > span0 {
			continue
		}
		k := kv[i]
		h := uint64(k) * fibMul >> shift
		for {
			s := &slots[h]
			if !s.used {
				continue row
			}
			if s.key == k {
				break
			}
			h = (h + 1) & mask
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
	v0, lo0, span0 := cols[e.ranges[0].slot], e.ranges[0].lo, uint64(e.ranges[0].hi-e.ranges[0].lo)
	kv := cols[e.gsrc[0].idx]
	qv := cols[e.ops[0].slot]
	av := cols[e.ops[1].slot]
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
			accs := l.lookupTab(gkey{k})
			accs[0].sum += float64(qv[i])
			accs[0].count++
			accs[1].sum += columnar.DecodeFloat(av[i])
		}
	}
}

// runSpillSumF is Q18's and Q3's loop: no fact-side filters, optional
// composite-key payload join, composite group keys resolved straight
// into the open-addressed group table, one float-sum accumulator.
func (l *flocal) runSpillSumF(b olap.Block) {
	e := l.e
	cols := b.Cols
	av := cols[e.ops[0].slot]
	ng := e.ngroup
	// Group-key sources, unrolled: gNv is dim N's fact column, or nil
	// when the dim reads payload index gNi. The nil guards below branch
	// identically every row, so the hot loop carries no bounded loops or
	// indirect slice loads — the same code a kernel hand-written for the
	// plan's exact key widths would run.
	var g0v, g1v, g2v, g3v []int64
	var g0i, g1i, g2i, g3i int
	for d := range e.gsrc[:e.ngroup] {
		g := &e.gsrc[d]
		v, idx := []int64(nil), g.idx
		if !g.pay {
			v, idx = cols[g.idx], 0
		}
		switch d {
		case 0:
			g0v, g0i = v, idx
		case 1:
			g1v, g1i = v, idx
		case 2:
			g2v, g2i = v, idx
		case 3:
			g3v, g3i = v, idx
		}
	}
	join := len(e.joins) == 1
	var pv0, pv1, pv2 []int64
	var slots []jslot[jkey]
	var slab []int64
	var mask uint64
	var shift uint8
	var npay int
	if join {
		j := &e.joins[0]
		pv0 = cols[j.probeSlots[0]]
		if len(j.probeSlots) > 1 {
			pv1 = cols[j.probeSlots[1]]
		}
		if len(j.probeSlots) > 2 {
			pv2 = cols[j.probeSlots[2]]
		}
		slots, slab, mask, shift = j.jK.slots, j.jK.slab, j.jK.mask, j.jK.shift
		npay = len(j.payCols)
	}
	tab := l.tab // pre-sized by NewLocal for gSpill plans
	var pay []int64
row:
	for i := 0; i < b.N; i++ {
		if join {
			// hashJK inlined over the unrolled key words.
			var jk jkey
			jk[0] = pv0[i]
			h := (fibMul ^ uint64(jk[0])) * fibMul
			if pv1 != nil {
				jk[1] = pv1[i]
				h = (h ^ uint64(jk[1])) * fibMul
			}
			if pv2 != nil {
				jk[2] = pv2[i]
				h = (h ^ uint64(jk[2])) * fibMul
			}
			h >>= shift
			for {
				s := &slots[h]
				if !s.used {
					continue row
				}
				if s.key == jk {
					if npay > 0 {
						pay = slab[s.off : int(s.off)+npay]
					}
					break
				}
				h = (h + 1) & mask
			}
		}
		var k gkey
		if g0v != nil {
			k[0] = g0v[i]
		} else {
			k[0] = pay[g0i]
		}
		if ng > 1 {
			if g1v != nil {
				k[1] = g1v[i]
			} else {
				k[1] = pay[g1i]
			}
		}
		if ng > 2 {
			if g2v != nil {
				k[2] = g2v[i]
			} else {
				k[2] = pay[g2i]
			}
		}
		if ng > 3 {
			if g3v != nil {
				k[3] = g3v[i]
			} else {
				k[3] = pay[g3i]
			}
		}
		st := &tab.lookup(&k)[0]
		st.sum += columnar.DecodeFloat(av[i])
		st.count++
	}
}
