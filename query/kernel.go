package query

// Vectorized kernels: the whole plan compiles into one loop over the
// block that runs a vector of rows (vecLen, in aggregate.go) at a time
// through each stage — filters and joins narrow a selection vector of row
// offsets, joins gather payload words into vectors indexed by row offset,
// group keys resolve to accumulator offsets, and each accumulator op runs
// one loop over the selection. Nothing larger than a vector is ever
// materialized, and the vectors live on the consuming goroutine's stack.
// Two scan shapes keep fully fused loops (kernel_fast.go).
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

// aggOp is one specialized accumulator update. The op code is fixed per
// (aggregate kind, column type, condition shape) at Prepare time, and the
// vector loop takes the op switch once per vector, then runs the op's own
// loop over the selection: no per-row dispatch, no per-row kind
// re-derivation. A sum carries no count; the accumulator that counts the
// selected rows gets an opCount of its own.
type aggOp struct {
	op   uint8
	slot int32 // logical slot read (fact scan or payload); -1 for opCount
	acc  int32
	// opCountIfInt: the row counts when (uint64(w-lo) <= span) != neg.
	lo   int64
	span uint64
	neg  bool
	test *ftest // opCountIfGen condition
}

const (
	opSumInt uint8 = iota
	opSumFloat
	opCount
	opCountIfInt
	opCountIfGen
	opMinInt
	opMinFloat
	opMaxInt
	opMaxFloat
)

// intSpan puts an int test in range form: a word w passes when
// (uint64(w-lo) <= span) != neg — one compare and no branch per row, since
// the subtraction rotates [lo, hi] onto [0, hi-lo]. ok is false for the
// float tests.
func (t *ftest) intSpan() (lo int64, span uint64, neg, ok bool) {
	switch t.kind {
	case fIntRange:
		return t.ilo, uint64(t.ihi - t.ilo), false, true
	case fIntNe:
		return t.ilo, 0, true, true
	case fIntNotRange:
		return t.ilo, uint64(t.ihi - t.ilo), true, true
	}
	return 0, 0, false, false
}

const (
	gNone uint8 = iota
	gDense
	gSpill
)

// fexec is a fully specialized fused kernel, instantiated per execution
// at Prepare time from the statement's current (stamped) predicate
// values. It implements olap.Exec.
type fexec struct {
	c  *Compiled
	sh *fuseShape

	nacc   int
	nscan  int
	ngroup int

	// never is set when some filter can match no row. filters are the
	// rest, int ranges first: the int ranges on one column merged into
	// one, so stacked bounds (Ge+Lt) test once.
	never   bool
	filters []filter

	// joins are the plan's joins in execution order, each with the table
	// this execution probes: none, one, or several.
	joins []fjoin

	gkind uint8
	ops   []aggOp
	spec  uint8 // monomorphic fast-loop selection (kernel_fast.go)
}

// addRange intersects an int range filter with the one already on its
// slot, or adds it.
func (e *fexec) addRange(slot int, lo, hi int64) {
	for i := range e.filters {
		if f := &e.filters[i]; f.slot == slot {
			f.ilo, f.ihi = max(f.ilo, lo), min(f.ihi, hi)
			if f.ilo > f.ihi {
				e.never = true
			}
			return
		}
	}
	e.filters = append(e.filters, filter{slot, ftest{kind: fIntRange, ilo: lo, ihi: hi}})
}

// prepareFused builds the specialized kernel for one execution: filters
// classify from their stamped kinds, CountIf conditions specialize, and
// each join gets its build side — reused, extended or built (build.go).
func (c *Compiled) prepareFused() (olap.Exec, int64) {
	e := &fexec{
		c: c, sh: c.fuse,
		nacc:   len(c.fuse.accs),
		nscan:  len(c.cols),
		ngroup: len(c.groups),
	}
	var others []filter
	for _, f := range c.filters {
		switch f.kind {
		case fIntRange:
			e.addRange(f.slot, f.ilo, f.ihi)
		case fNever:
			e.never = true
		default:
			others = append(others, f)
		}
	}
	e.filters = append(e.filters, others...)
	switch e.ngroup {
	case 0:
		e.gkind = gNone
	case 1:
		e.gkind = gDense
	default:
		e.gkind = gSpill
	}
	for ai := range c.fuse.accs {
		as := &c.fuse.accs[ai]
		op := aggOp{acc: int32(ai), slot: int32(as.slot)}
		switch as.kind {
		case facSum:
			op.op = opSumInt
			if as.decode {
				op.op = opSumFloat
			}
			if !as.noCount {
				e.ops = append(e.ops, op, aggOp{op: opCount, slot: -1, acc: op.acc})
				continue
			}
		case facCount:
			op.op = opCount
		case facCountIf:
			cond := c.aggs[as.aggIdx].cond
			op.op, op.test = opCountIfGen, cond
			if lo, span, neg, ok := cond.intSpan(); ok {
				op.op, op.lo, op.span, op.neg = opCountIfInt, lo, span, neg
			}
		case facMin:
			op.op = opMinInt
			if as.decode {
				op.op = opMinFloat
			}
		case facMax:
			op.op = opMaxInt
			if as.decode {
				op.op = opMaxFloat
			}
		}
		e.ops = append(e.ops, op)
	}
	e.spec = e.pickSpec()
	e.joins = make([]fjoin, 0, len(c.joins))
	var buildBytes int64
	for ji, j := range c.joins {
		side, scanned := c.buildJoin(ji)
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
