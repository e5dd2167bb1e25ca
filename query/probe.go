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

// slab is the build side's payload slab: payload rows of len(payCols)
// words, addressed by the word offsets probe records.
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
//
//htap:hotpath
func (j *fjoin) probe(v *vecs, sel []int32) int {
	var keys [maxJoinCols][]int64
	for d, s := range j.probeSlots {
		keys[d] = v.slot(s)
	}
	ks := keys[:len(j.probeSlots)]
	out, moff := v.sel[:], v.moff[:]
	m := 0
	switch t := j.dn; {
	case t != nil && len(ks) == 1:
		k0, min0, span0 := ks[0], t.min[0], t.span[0]
		for _, r := range sel {
			x := uint64(k0[r] - min0)
			if x >= span0 {
				continue
			}
			if row := t.row(x); row != 0 {
				out[m], moff[m] = r, (row-1)*t.npay
				m++
			}
		}
	case t != nil:
	dense:
		for _, r := range sel {
			var cell uint64
			for d, kv := range ks {
				x := uint64(kv[r] - t.min[d])
				if x >= t.span[d] {
					continue dense
				}
				cell += x * t.stride[d]
			}
			if row := t.row(cell); row != 0 {
				out[m], moff[m] = r, (row-1)*t.npay
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
					out[m], moff[m] = r, int(s.off)
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
					out[m], moff[m] = r, int(s.off)
					m++
					continue hashedK
				}
			}
		}
	}
	slab, kept := j.slab(), out[:m]
	for c := range j.payCols {
		dst := v.pay[j.payBase+c][:]
		for k, r := range kept {
			dst[r] = slab[moff[k]+c]
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
