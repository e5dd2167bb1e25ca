package query

// Execution side of the fused kernels: open-addressed hash tables for
// the join build side and spill grouping, the per-morsel single-pass
// loops, and the morsel-ordered merge.

import (
	"sort"

	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

// fibMul is the 64-bit golden-ratio constant. Single-key tables index
// with one multiply and take the TOP bits (Fibonacci hashing): dense or
// sequential keys spread uniformly, and the per-probe cost is a single
// imul — cheaper than any avalanche mix and cheaper than Go's map hash.
const fibMul = 0x9e3779b97f4a7c15

// hash1 is the single-word hash; a table indexes by its top bits.
func hash1(k int64) uint64 {
	return uint64(k) * fibMul
}

// hashJK folds composite keys with one xor-multiply per word; the final
// multiply smears every input bit into the top bits, which the tables
// index by (low bits are weak for this chain and are shifted away).
func hashJK(k *jkey, n int) uint64 {
	h := uint64(fibMul)
	for d := 0; d < n; d++ {
		h = (h ^ uint64(k[d])) * fibMul
	}
	return h
}

func hashGK(k *gkey, n int) uint64 {
	h := uint64(fibMul)
	for d := 0; d < n; d++ {
		h = (h ^ uint64(k[d])) * fibMul
	}
	return h
}

// joinTab is the hashed join build table, keyed by the raw int64 word
// (single-column keys) or a fixed-width jkey (composite ones):
// linear-probed slots, payload rows packed in one slab at fixed stride.
// buildJoin presizes it from the dimension's row count, so an
// unpredicated load never rehashes. (Densely keyed build sides skip
// hashing altogether: see build.go.)
type joinTab[K comparable] struct {
	mask  uint64
	shift uint8
	slots []jslot[K]
	slab  []int64
	n     int // keys held
}

type jslot[K comparable] struct {
	key  K
	off  int32
	used bool
}

// sizeFor picks the power-of-two slot count holding n entries under 3/4
// load, returning (nslots, shift).
func sizeFor(n int) (int, uint8) {
	nslots, shift := 64, uint8(58)
	for nslots*3 < n*4 {
		nslots, shift = nslots*2, shift-1
	}
	return nslots, shift
}

// init presizes the table for n0 build rows of npay payload words.
func (t *joinTab[K]) init(n0, npay int) {
	nslots, shift := sizeFor(n0)
	t.slots = make([]jslot[K], nslots)
	t.mask, t.shift = uint64(nslots-1), shift
	if npay > 0 && n0 > 0 {
		t.slab = make([]int64, 0, n0*npay)
	}
}

// grow doubles the slots; hash is the key's full-width hash, of which the
// table indexes by the top bits.
func (t *joinTab[K]) grow(hash func(K) uint64) {
	old := t.slots
	t.slots = make([]jslot[K], len(old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	for i := range old {
		s := old[i]
		if !s.used {
			continue
		}
		h := hash(s.key) >> t.shift
		for t.slots[h].used {
			h = (h + 1) & t.mask
		}
		t.slots[h] = s
	}
}

// add loads row i of a build-side run (see buildJoin) under key k, whose
// hash is hk; hash itself is only called to grow. Duplicate keys keep the
// last row's payload; rows arrive ascending, index-narrowed or not, so
// both resolve duplicates identically.
func (t *joinTab[K]) add(k K, hk uint64, hash func(K) uint64, run *dimRun, i int) {
	off := int32(len(t.slab))
	t.slab = run.appendPay(t.slab, i)
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow(hash)
	}
	h := hk >> t.shift
	for {
		s := &t.slots[h]
		if !s.used {
			s.key, s.off, s.used = k, off, true
			t.n++
			return
		}
		if s.key == k {
			s.off = off // last row wins
			return
		}
		h = (h + 1) & t.mask
	}
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

func newGroupTab(nacc, nkey int) *groupTab {
	return &groupTab{mask: 63, shift: 58, slots: make([]int32, 64), nacc: nacc, nkey: nkey}
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
	h := hashGK(k, t.nkey) >> t.shift
	for {
		s := t.slots[h]
		if s == 0 {
			break
		}
		if t.keys[s-1] == *k {
			off := int(s-1) * t.nacc
			return t.arena[off : off+t.nacc]
		}
		h = (h + 1) & t.mask
	}
	if (len(t.keys)+1)*4 > len(t.slots)*3 {
		t.grow()
		h = hashGK(k, t.nkey) >> t.shift
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
		l.tab = newGroupTab(e.nacc, max(e.ngroup, 1))
	}
	return l
}

// growDense doubles the flat array from 16 to cover key k, capped at
// denseLen; keys past the cap go through lookupTab.
//
//htap:coldpath
func (l *flocal) growDense(k int64) {
	n := 16
	for n <= int(k) {
		n *= 2
	}
	if n > denseLen {
		n = denseLen
	}
	flat := make([]acc, n*l.e.nacc)
	copy(flat, l.flat)
	present := make([]bool, n)
	copy(present, l.present)
	l.flat, l.present = flat, present
}

// growIF doubles the specDenseSumIF cell array to cover key k, the same
// doubling-from-16 policy as growDense.
//
//htap:coldpath
func (l *flocal) growIF(k int64) {
	n := 16
	for n <= int(k) {
		n *= 2
	}
	if n > denseLen {
		n = denseLen
	}
	flat := make([]sumIF, n)
	copy(flat, l.flatIF)
	l.flatIF = flat
}

// lookupTab resolves a spilled key through the open-addressed table,
// creating the table on a dense plan's first overflow key.
//
//htap:coldpath
func (l *flocal) lookupTab(k gkey) []acc {
	if l.tab == nil {
		l.tab = newGroupTab(l.e.nacc, max(l.e.ngroup, 1))
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

// prober is what a block's probes read besides the row number: the plan's
// joins, the block's columns, and buf, where a plan with several joins
// gathers the row's payload words. It is one pointer and not six argument
// words because probe is a single function over every join and table
// form: with the six held in registers its inner loops spill their own
// counters (Q12 +15 %).
type prober struct {
	joins []fjoin
	cols  [][]int64
	buf   []int64
	nscan int
}

// probe resolves the plan's joins for row i in execution order and
// returns the row's payload words; ok is false when some join has no
// match. Key word d of a join is read from its logical slot probeSlots[d]
// (word). A plan with one join gets the matched build row itself, aliased
// in its table's slab; a plan with several gathers each match's words into
// buf at the join's payBase — where a later join keyed on them reads them
// — and gets buf.
//
//htap:hotpath
func (p *prober) probe(i int) (pay []int64, ok bool) {
	for ji := range p.joins {
		j := &p.joins[ji]
		switch {
		case j.dn != nil:
			t := j.dn
			var cell uint64
			for d, s := range j.probeSlots {
				x := uint64(p.word(s, i) - t.min[d])
				if x >= t.span[d] {
					return nil, false
				}
				cell += x * t.stride[d]
			}
			r := t.row(cell)
			if r == 0 {
				return nil, false
			}
			pay = t.slab[(r-1)*t.npay : r*t.npay]
		case len(j.keyCols) == 1:
			t := &j.j1
			k := p.word(j.probeSlots[0], i)
			h := hash1(k) >> t.shift
			for {
				s := &t.slots[h]
				if !s.used {
					return nil, false
				}
				if s.key == k {
					pay = t.slab[s.off : int(s.off)+len(j.payCols)]
					break
				}
				h = (h + 1) & t.mask
			}
		default:
			t := &j.jK
			var k jkey
			for d, s := range j.probeSlots {
				k[d] = p.word(s, i)
			}
			h := hashJK(&k, len(j.keyCols)) >> t.shift
			for {
				s := &t.slots[h]
				if !s.used {
					return nil, false
				}
				if s.key == k {
					pay = t.slab[s.off : int(s.off)+len(j.payCols)]
					break
				}
				h = (h + 1) & t.mask
			}
		}
		if len(p.joins) == 1 {
			return pay, true
		}
		// Single-word payloads (the common case) skip memmove.
		if len(pay) == 1 {
			p.buf[j.payBase] = pay[0]
		} else {
			copy(p.buf[j.payBase:], pay)
		}
	}
	return p.buf, true
}

// word reads row i's word of logical slot s: a fact block column, or past
// the scan list the payload word an earlier join gathered.
func (p *prober) word(s, i int) int64 {
	if s < p.nscan {
		return p.cols[s][i]
	}
	return p.buf[s-p.nscan]
}

// filterRow evaluates the specialized range filters then any generic
// tests for row i.
func (e *fexec) filterRow(cols [][]int64, i int) bool {
	for r := range e.ranges {
		rg := &e.ranges[r]
		// One branch per range: w ∈ [lo,hi] iff w-lo ≤ hi-lo unsigned
		// (the subtraction rotates [lo,hi] onto [0,hi-lo]).
		if uint64(cols[rg.slot][i]-rg.lo) > uint64(rg.hi-rg.lo) {
			return false
		}
	}
	for r := range e.franges {
		rg := &e.franges[r]
		if d := columnar.DecodeFloat(cols[rg.slot][i]); d < rg.lo || d > rg.hi {
			return false
		}
	}
	for g := range e.gens {
		f := &e.gens[g]
		if !f.match(cols[f.slot][i]) {
			return false
		}
	}
	return true
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

// --- merge ---

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

// Merge implements olap.Exec. The engine passes locals in morsel order;
// totals accumulate in that order and grouped rows emit sorted ascending
// by key, so results are bitwise identical under any stealing or resize
// interleaving. Having predicates then drop rows and an OrderBy re-sorts
// the survivors (finishRes) — both over fully merged values.
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
	order := make([]int32, len(total.keys))
	for i := range order {
		order[i] = int32(i)
	}
	keys := total.keys
	sort.Slice(order, func(i, j int) bool {
		a, b := &keys[order[i]], &keys[order[j]]
		for d := 0; d < e.ngroup; d++ {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	for _, oi := range order {
		off := int(oi) * e.nacc
		res.Rows = append(res.Rows, e.emitRow(keys[oi], total.arena[off:off+e.nacc]))
	}
	return finishRes(c, res)
}
