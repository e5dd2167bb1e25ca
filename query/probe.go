package query

// The probe phase of the fused kernels: the hash functions, the join build
// side's open-addressed table, the per-row join probe and the per-row
// filter.

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
