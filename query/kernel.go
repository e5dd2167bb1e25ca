package query

// Fused single-pass kernels: the whole plan compiles into one loop over
// the block — every row is filtered, probed, group-resolved and
// accumulated before the next row is touched, with no intermediate
// selection or payload materialization at all.
//
// The split between Bind and Prepare matters for prepared statements:
// WithArgs stamping may change a predicate's evaluation kind (a range
// can become fNever, an Eq can become a dictionary code), so everything
// value-dependent is specialized at Prepare time, while Bind fixes only
// the value-independent *shape* — which accumulators exist (deduplicated:
// Sum/Avg over the same column share one sum+count, Count piggybacks on
// any sum), and how output columns map onto them.
//
// Results are bitwise deterministic: within a morsel each (group,
// accumulator) pair sees its float updates in ascending row order, and
// Merge folds the per-morsel partials in morsel order, so
// DeepEqual-exactness against the hand-coded oracles and the plan-level
// interpreter in reference_test.go holds under stealing and resizes.

import (
	"elastichtap/internal/columnar"
	"elastichtap/internal/olap"
)

// fAccKind is a physical accumulator kind after deduplication.
type fAccKind uint8

const (
	facSum     fAccKind = iota // sum+count; feeds Sum, Avg and Count emits
	facCount                   // bare row counter (no sum acc to piggyback on)
	facCountIf                 // conditional counter (cond read at Prepare)
	facMin
	facMax
)

// accSpec is one deduplicated accumulator in the kernel's group state.
type accSpec struct {
	kind    fAccKind
	slot    int // column slot read (fact scan or payload); -1 for facCount
	decode  bool
	aggIdx  int  // for facCountIf: index into c.aggs holding the condition
	noCount bool // facSum past the first: count lives on the shared carrier
}

// emitSpec maps one output aggregate column onto its accumulator. cnt is
// the accumulator whose count field feeds Avg and Count emits — always
// the first sum accumulator, since every fused accumulator sees the same
// selected rows and only the first pays for counting them.
type emitSpec struct {
	kind aggKind
	acc  int
	cnt  int
}

// fuseShape is the Bind-time, value-independent accumulator/emit layout
// shared by every stamping of a prepared statement.
type fuseShape struct {
	accs  []accSpec
	emits []emitSpec
}

// buildFuseShape lays out deduplicated accumulators. Sum/Avg over the
// same (slot, decode) share one accumulator — its count field counts
// selected rows, exactly what Count emits — so Q1's five output
// aggregates run on two physical accumulators, matching the hand-coded
// kernel.
func buildFuseShape(c *Compiled) *fuseShape {
	s := &fuseShape{}
	type dk struct {
		kind   fAccKind
		slot   int
		decode bool
	}
	idx := map[dk]int{}
	// countAcc is the shared selected-row counter: the first sum
	// accumulator (it increments count unconditionally per row; later
	// sums skip counting — every accumulator sees the same rows).
	countAcc := -1
	addAcc := func(spec accSpec, dedup bool) int {
		if dedup {
			k := dk{spec.kind, spec.slot, spec.decode}
			if i, ok := idx[k]; ok {
				return i
			}
			idx[k] = len(s.accs)
		}
		if spec.kind == facSum {
			if countAcc < 0 {
				countAcc = len(s.accs)
			} else {
				spec.noCount = true
			}
		}
		s.accs = append(s.accs, spec)
		return len(s.accs) - 1
	}
	for j := range c.aggs {
		a := &c.aggs[j]
		switch a.kind {
		case aggSum, aggAvg:
			i := addAcc(accSpec{kind: facSum, slot: a.slot, decode: a.decode}, true)
			s.emits = append(s.emits, emitSpec{a.kind, i, countAcc})
		case aggCount:
			s.emits = append(s.emits, emitSpec{aggCount, -1, -1}) // resolved below
		case aggCountIf:
			i := addAcc(accSpec{kind: facCountIf, slot: a.condSlot, aggIdx: j}, false)
			s.emits = append(s.emits, emitSpec{aggCountIf, i, i})
		case aggMin:
			i := addAcc(accSpec{kind: facMin, slot: a.slot, decode: a.decode}, true)
			s.emits = append(s.emits, emitSpec{aggMin, i, i})
		case aggMax:
			i := addAcc(accSpec{kind: facMax, slot: a.slot, decode: a.decode}, true)
			s.emits = append(s.emits, emitSpec{aggMax, i, i})
		}
	}
	// Count emits read the shared counter; only a plan with no sums pays
	// for a dedicated one.
	for ei := range s.emits {
		if s.emits[ei].kind == aggCount && s.emits[ei].acc < 0 {
			if countAcc < 0 {
				countAcc = addAcc(accSpec{kind: facCount, slot: -1}, true)
			}
			s.emits[ei].acc, s.emits[ei].cnt = countAcc, countAcc
		}
	}
	return s
}

// --- Prepare-time specialization ---

// aggOp is one specialized per-row accumulator update. The op code is
// fixed per (aggregate kind, column type, condition shape) at Prepare
// time, so the row loop dispatches through a dense predictable switch —
// no per-row interface calls, no per-row kind re-derivation.
type aggOp struct {
	op     uint8
	pay    bool  // read the probed payload row instead of a block column
	slot   int32 // block slot, or payload index when pay
	acc    int32
	lo, hi int64  // opCountIfRange bounds
	test   *ftest // opCountIfGen condition
}

const (
	opSumInt uint8 = iota
	opSumFloat
	opSumIntNC   // sum only: the first sum accumulator carries the count
	opSumFloatNC //
	opCount
	opCountIfRange
	opCountIfGen
	opMinInt
	opMinFloat
	opMaxInt
	opMaxFloat
)

// frange is a specialized inclusive int64-word range filter — the
// canonical form of every ordered int predicate and every dictionary
// equality, merged per slot so stacked ranges on one column test once.
type frange struct {
	slot   int
	lo, hi int64
}

// ffrange is the float64 analogue (decode then compare).
type ffrange struct {
	slot   int
	lo, hi float64
}

const (
	gNone uint8 = iota
	gDense
	gSpill
)

// gsrc locates one group-key column: a fact block slot or a probed
// payload index.
type gsrc struct {
	pay bool
	idx int
}

// fexec is a fully specialized fused kernel, instantiated per execution
// at Prepare time from the statement's current (stamped) predicate
// values. It implements olap.Exec.
type fexec struct {
	c  *Compiled
	sh *fuseShape

	nacc   int
	nscan  int
	ngroup int

	// filters, classified from stamped kinds
	never   bool
	ranges  []frange
	franges []ffrange
	gens    []filter

	// joins are the plan's joins in execution order, each with the table
	// this execution probes: none, one, or several.
	joins []fjoin

	// grouping
	gkind uint8
	gsrc  [maxGroupCols]gsrc // the first ngroup are set; gDense reads gsrc[0]

	ops  []aggOp
	spec uint8 // monomorphic fast-loop selection (kernel_fast.go)
}

// srcOf splits a logical slot into (index, isPayload): payload columns
// occupy virtual slots after the fact scan list.
func (e *fexec) srcOf(slot int) (int, bool) {
	if slot >= e.nscan {
		return slot - e.nscan, true
	}
	return slot, false
}

// addRange appends an int range filter, intersecting with an existing
// range on the same slot so stacked bounds (Ge+Lt) test once per row.
func (e *fexec) addRange(slot int, lo, hi int64) {
	for i := range e.ranges {
		if e.ranges[i].slot == slot {
			if lo > e.ranges[i].lo {
				e.ranges[i].lo = lo
			}
			if hi < e.ranges[i].hi {
				e.ranges[i].hi = hi
			}
			if e.ranges[i].lo > e.ranges[i].hi {
				e.never = true
			}
			return
		}
	}
	e.ranges = append(e.ranges, frange{slot: slot, lo: lo, hi: hi})
}

// prepareFused builds the specialized kernel for one execution: filters
// classify into range/generic forms from their stamped kinds, CountIf
// conditions specialize, group keys resolve their sources, and each join
// gets its build side — reused, extended or built (build.go).
func (c *Compiled) prepareFused() (olap.Exec, int64) {
	e := &fexec{
		c: c, sh: c.fuse,
		nacc:   len(c.fuse.accs),
		nscan:  len(c.cols),
		ngroup: len(c.groups),
	}
	for i := range c.filters {
		f := &c.filters[i]
		switch f.kind {
		case fIntRange:
			e.addRange(f.slot, f.ilo, f.ihi)
		case fFloatRange:
			e.franges = append(e.franges, ffrange{slot: f.slot, lo: f.flo, hi: f.fhi})
		case fNever:
			e.never = true
		default:
			e.gens = append(e.gens, *f)
		}
	}
	switch e.ngroup {
	case 0:
		e.gkind = gNone
	case 1:
		e.gkind = gDense
	default:
		e.gkind = gSpill
	}
	for d, s := range c.groups {
		idx, pay := e.srcOf(s)
		e.gsrc[d] = gsrc{pay: pay, idx: idx}
	}
	for ai := range c.fuse.accs {
		as := &c.fuse.accs[ai]
		op := aggOp{acc: int32(ai)}
		slot := as.slot
		switch as.kind {
		case facSum:
			switch {
			case as.decode && as.noCount:
				op.op = opSumFloatNC
			case as.decode:
				op.op = opSumFloat
			case as.noCount:
				op.op = opSumIntNC
			default:
				op.op = opSumInt
			}
		case facCount:
			op.op = opCount
			slot = 0 // fetched, ignored
		case facCountIf:
			cond := c.aggs[as.aggIdx].cond
			if cond.kind == fIntRange {
				op.op, op.lo, op.hi = opCountIfRange, cond.ilo, cond.ihi
			} else {
				op.op, op.test = opCountIfGen, cond
			}
		case facMin:
			if as.decode {
				op.op = opMinFloat
			} else {
				op.op = opMinInt
			}
		case facMax:
			if as.decode {
				op.op = opMaxFloat
			} else {
				op.op = opMaxInt
			}
		}
		if idx, pay := e.srcOf(slot); pay {
			op.pay, op.slot = true, int32(idx)
		} else {
			op.slot = int32(idx)
		}
		e.ops = append(e.ops, op)
	}
	// The kernel is picked from the shape before any table exists: the two
	// fast loops that inline a hash probe need their join hashed.
	e.spec = e.pickSpec()
	e.joins = make([]fjoin, 0, len(c.joins))
	var buildBytes int64
	for ji, j := range c.joins {
		side, scanned := c.buildJoin(ji, e.spec == specGeneric)
		buildBytes += scanned * int64(j.words) * columnar.WordBytes
		e.joins = append(e.joins, fjoin{j, side})
	}
	return e, buildBytes
}

// fjoin is one join of an execution: the compiled join — probe sources
// (fact scan slots or earlier joins' payload slots), key and payload
// widths, where its payload lands among the plan's payload words — and the
// table this execution probes for it.
type fjoin struct {
	*joinPlan
	buildSide
}
