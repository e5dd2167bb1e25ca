package query

// The probe phase of the kernels: the hash functions, the join build
// side's open-addressed table, and the two loops that narrow a vector's
// selection: a join's probe and a filter's test.

import "elastichtap/internal/columnar"

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

// zeroWords is the third key word a two-word dense probe reads.
var zeroWords [vecLen]int64

// jkey is a composite join key (unused trailing slots stay zero; the key
// width is fixed per plan so they never collide).
type jkey [maxJoinCols]int64

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
	n     int   // keys held
	rows  int32 // rows loaded, each one's payload in the slab
}

// jslot is one key and the build row it resolves to, the last loaded
// under it; the row's payload starts at slab word row·len(payCols).
type jslot[K comparable] struct {
	key  K
	row  int32
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
	row := t.rows
	t.rows++
	t.slab = run.appendPay(t.slab, i)
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow(hash)
	}
	h := hk >> t.shift
	for {
		s := &t.slots[h]
		if !s.used {
			s.key, s.row, s.used = k, row, true
			t.n++
			return
		}
		if s.key == k {
			s.row = row // last row wins
			return
		}
		h = (h + 1) & t.mask
	}
}

// slotsByRow maps each build row a key resolves to back to that key's
// slot.
func (t *joinTab[K]) slotsByRow() []int {
	slot := make([]int, t.rows)
	for h := range t.slots {
		if s := &t.slots[h]; s.used {
			slot[s.row] = h
		}
	}
	return slot
}

// slab is the build side's payload slab: payload rows of len(payCols)
// words, the row probe records starting at word row·len(payCols).
func (j *fjoin) slab() []int64 {
	switch {
	case j.dn != nil:
		return j.dn.slab
	case len(j.keyCols) == 1:
		return j.j1.slab
	}
	return j.jK.slab
}

// probe narrows the selection to the rows the join's table holds, in one
// loop per table form, and returns how many it kept in v.sel. Key word d
// is read from logical slot probeSlots[d]: a fact column, or the payload
// vector an earlier join filled. Each kept row's payload words then land
// in the join's payload vectors at the row's offset, one gather loop per
// payload column, where the ops, the group keys and later joins read them.
// A gJoin plan's group join also leaves each kept row's build row at the
// row's offset in v.ent, where the group resolves from it.
//
// The dense one-word loops keep rows without a branch, as narrow does:
// a filtered build side (Q19's and Q5's items) has holes at random, and
// a branch on them mispredicted on about every other row; without it,
// BenchmarkQ19Narrow ran 1.7× and BenchmarkQ5Builder 1.5× faster. The
// composite and hashed loops still branch on a miss: a composite loop
// folded the same way ran BenchmarkQ3Builder about 1.5× slower, its
// misses coming in runs of one order's lines, which a branch predicts.
//
//htap:hotpath
func (j *fjoin) probe(v *vecs, sel []int32) int {
	var keys [maxJoinCols][]int64
	for d, s := range j.probeSlots {
		keys[d] = v.slot(s)
	}
	ks := keys[:len(j.probeSlots)]
	out, brow := v.sel[:], v.brow[:]
	m := 0
	switch t := j.dn; {
	case t != nil && len(ks) == 1:
		// The span test is the idx load's bounds check; a fact key is
		// almost always inside the span, so it predicts well.
		k0, min0, span0 := ks[0], t.min[0], t.span[0]
		if t.idx == nil {
			for _, r := range sel {
				x := uint64(k0[r] - min0)
				out[m], brow[m] = r, int32(x)
				if x < span0 {
					m++
				}
			}
			break
		}
		idx := t.idx[:span0]
		for _, r := range sel {
			x, row := uint64(k0[r]-min0), int32(0)
			if x < uint64(len(idx)) {
				row = idx[x]
			}
			out[m], brow[m] = r, row-1
			m += int(uint32(-row) >> 31)
		}
	case t != nil:
		// A composite key has two or three words; a two-word key's table
		// gives its third word span 1 and stride 0, and the probe reads 0
		// for it, so one unrolled loop serves both.
		k0, k1, k2 := ks[0], ks[1], zeroWords[:]
		if len(ks) == maxJoinCols {
			k2 = ks[2]
		}
		lo0, lo1, lo2 := t.min[0], t.min[1], t.min[2]
		s0, s1, s2 := t.span[0], t.span[1], t.span[2]
		st0, st1, st2 := t.stride[0], t.stride[1], t.stride[2]
		for _, r := range sel {
			x0, x1, x2 := uint64(k0[r]-lo0), uint64(k1[r]-lo1), uint64(k2[r]-lo2)
			if x0 >= s0 || x1 >= s1 || x2 >= s2 {
				continue
			}
			if row := t.row(x0*st0 + x1*st1 + x2*st2); row != 0 {
				out[m], brow[m] = r, int32(row-1)
				m++
			}
		}
	case len(ks) == 1:
		t, k0 := &j.j1, ks[0]
	hashed1:
		for _, r := range sel {
			k := k0[r]
			for h := hash1(k) >> t.shift; ; h = (h + 1) & t.mask {
				s := &t.slots[h]
				if !s.used {
					continue hashed1
				}
				if s.key == k {
					out[m], brow[m] = r, s.row
					m++
					continue hashed1
				}
			}
		}
	default:
		t := &j.jK
	hashedK:
		for _, r := range sel {
			var k jkey
			for d, kv := range ks {
				k[d] = kv[r]
			}
			for h := hashJK(&k, len(ks)) >> t.shift; ; h = (h + 1) & t.mask {
				s := &t.slots[h]
				if !s.used {
					continue hashedK
				}
				if s.key == k {
					out[m], brow[m] = r, s.row
					m++
					continue hashedK
				}
			}
		}
	}
	slab, kept, npay := j.slab(), out[:m], len(j.payCols)
	for c := range j.payCols {
		dst := v.pay[j.payBase+c][:]
		for k, r := range kept {
			dst[r] = slab[int(brow[k])*npay+c]
		}
	}
	if j.grouped {
		for k, r := range kept {
			v.ent[r] = brow[k]
		}
	}
	return m
}

// narrow keeps the rows of sel whose word in src passes the test, in
// order, writing them to out (which may be sel itself), and returns how
// many it kept. Every row is written and the count advances only on a
// pass, so the int loop has no data-dependent branch.
//
//htap:hotpath
func (t *ftest) narrow(src []int64, sel, out []int32) int {
	m := 0
	if lo, span, neg, ok := t.intSpan(); ok {
		for _, r := range sel {
			out[m] = r
			if (uint64(src[r]-lo) <= span) != neg {
				m++
			}
		}
		return m
	}
	if t.kind == fFloatRange {
		lo, hi := t.flo, t.fhi
		for _, r := range sel {
			out[m] = r
			if d := columnar.DecodeFloat(src[r]); d >= lo && d <= hi {
				m++
			}
		}
		return m
	}
	for _, r := range sel {
		out[m] = r
		if t.match(src[r]) {
			m++
		}
	}
	return m
}
