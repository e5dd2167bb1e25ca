package query

// A plan-level reference interpreter. It evaluates a Plan's logical
// fields (σ preds, ⋈ graph, γ groups/aggs, having, order/limit) literally,
// one row at a time over decoded table cells, sharing nothing with Bind or
// the kernels. It implements olap.Query, so the engine drives it over the
// same morsels as the compiled plan: both add floats in ascending row
// order within a morsel and fold morsels in order, so their results must
// be bitwise equal (reflect.DeepEqual) at any worker count.

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
)

type (
	refKey [max(maxJoinCols, maxGroupCols)]int64
	// refCol names a column of refExec.tabs[tab]; tab < 0 means the first
	// table that has the name, the fact table (tab 0) first.
	refCol struct {
		tab  int
		name string
	}
	// refRel is a joined relation: where its key words are read from, and
	// the row each key maps to among the rows passing its predicates.
	refRel struct {
		from []refCol
		rows map[refKey]int64
	}
	// refState is one aggregate's state over some rows; a single row is the
	// state {sum: v, ext: v, n: 1 (0 for a failed CountIf), seen: true}.
	refState struct {
		sum, ext float64
		n        int64
		seen     bool
	}
)

// fold adds src's rows to s; it is both the per-row update and the merge.
func (s *refState) fold(src refState, isMin bool) {
	s.sum += src.sum
	s.n += src.n
	if src.seen && (!s.seen || (isMin && src.ext < s.ext) || (!isMin && src.ext > s.ext)) {
		s.ext, s.seen = src.ext, true
	}
}

// refNum converts a numeric cell or plan literal to T.
func refNum[T int64 | float64](v any) T {
	if rv := reflect.ValueOf(v); rv.CanInt() {
		return T(rv.Int())
	} else {
		return T(rv.Float()) // panics on a non-number
	}
}

// refHolds evaluates pr on a decoded cell, comparing in the cell's own
// type: int64, float64 (also every emitted result cell) or string.
func refHolds(pr Pred, cell any) bool {
	order := func(lit any) int {
		switch c := cell.(type) {
		case int64:
			return cmp.Compare(c, refNum[int64](lit))
		case float64:
			return cmp.Compare(c, refNum[float64](lit))
		}
		return cmp.Compare(cell.(string), lit.(string))
	}
	lo, hi := order(pr.lo), 0
	if pr.hi != nil {
		hi = order(pr.hi)
	}
	return [...]bool{opEq: lo == 0, opNe: lo != 0, opGt: lo > 0, opGe: lo >= 0, opLt: lo < 0, opLe: lo <= 0,
		opBetween: lo >= 0 && hi <= 0, opNotBetween: lo < 0 || hi > 0}[pr.op]
}

// refQuery adapts a literal (parameterless) plan to olap.Query. It reads
// fact rows from the table by row id, so it asks the engine for no columns
// and uses only each block's row range.
type refQuery struct {
	p   *Plan
	cat Catalog
}

// Class is only read by the scheduler, which never runs the reference.
func (q refQuery) Class() costmodel.WorkClass { return costmodel.ScanReduce }
func (q refQuery) Name() string               { return q.p.Name() }
func (q refQuery) FactTable() string          { return q.p.table }
func (q refQuery) Columns() []int             { return nil }

// refExec holds the tables in placement order — the fact table, then each
// relation — with their predicates; rels[i] joins tabs[i+1]. A match is one
// row id per table: the fact row and the relation rows joined to it.
type refExec struct {
	p     *Plan
	names []string
	tabs  []*columnar.Table
	preds [][]Pred
	rels  []refRel
}

// cell decodes c on its table's row of match: an int64, float64 or string.
func (e *refExec) cell(c refCol, match []int64) any {
	for ti, t := range e.tabs {
		if i := t.Schema().ColumnIndex(c.name); i >= 0 && (c.tab < 0 || c.tab == ti) {
			return t.DecodeValue(i, t.ReadActive(match[ti], i))
		}
	}
	panic(fmt.Sprintf("reference: no column %q", c.name))
}

func (e *refExec) key(cols []refCol, match []int64) (k refKey) {
	for d, c := range cols {
		k[d] = e.cell(c, match).(int64)
	}
	return k
}

// passes reports whether tabs[tab]'s row of match satisfies its predicates.
func (e *refExec) passes(tab int, match []int64) bool {
	return !slices.ContainsFunc(e.preds[tab], func(pr Pred) bool {
		return !refHolds(pr, e.cell(refCol{tab, pr.col}, match))
	})
}

// Prepare implements olap.Query: place each relation once the sources of
// all its in-edges are placed, and map its merged key to rows by a full
// scan of the rows passing its predicates (last wins).
func (q refQuery) Prepare() (olap.Exec, int64) {
	p := q.p
	e := &refExec{p: p}
	place := func(name string, preds []Pred) int {
		for _, ed := range p.graph {
			for _, r := range []*Relation{ed.from, ed.to} { // a repeated predicate is harmless
				if r.name == name {
					preds = append(preds, r.preds...)
				}
			}
		}
		e.names, e.tabs, e.preds = append(e.names, name), append(e.tabs, q.cat.Handle(name).Table()), append(e.preds, preds)
		return len(e.tabs) - 1
	}
	place(p.table, slices.Clone(p.preds))
	for placed := true; placed; {
		placed = false
	edges:
		for _, target := range p.graph {
			name := target.to.name
			if slices.Contains(e.names, name) {
				continue
			}
			var from, to []refCol
			for _, ed := range p.graph {
				src := slices.Index(e.names, ed.from.name)
				if ed.to.name != name {
					continue
				} else if src < 0 {
					continue edges
				}
				for i := range ed.fromCols {
					from, to = append(from, refCol{src, ed.fromCols[i]}), append(to, refCol{len(e.tabs), ed.toCols[i]})
				}
			}
			ti, r := place(name, nil), refRel{from, map[refKey]int64{}}
			for match := make([]int64, ti+1); match[ti] < e.tabs[ti].Rows(); match[ti]++ {
				if e.passes(ti, match) {
					r.rows[e.key(to, match)] = match[ti]
				}
			}
			e.rels, placed = append(e.rels, r), true
		}
	}
	return e, 0
}

type refLocal struct {
	e      *refExec
	groups map[refKey][]refState
}

func (e *refExec) NewLocal() olap.Local { return &refLocal{e, map[refKey][]refState{}} }

// Consume implements olap.Local: per row, filter → look up every joined
// relation → resolve the group → fold the row into each aggregate.
func (l *refLocal) Consume(b olap.Block) {
	e := l.e
	match := make([]int64, len(e.tabs))
rows:
	for match[0] = b.Base; match[0] < b.Base+int64(b.N); match[0]++ {
		if !e.passes(0, match) {
			continue
		}
		for ri, r := range e.rels {
			row, ok := r.rows[e.key(r.from, match)]
			if !ok {
				continue rows
			}
			match[ri+1] = row
		}
		var k refKey
		for d, g := range e.p.groups {
			k[d] = e.cell(refCol{-1, g}, match).(int64)
		}
		if l.groups[k] == nil {
			l.groups[k] = make([]refState, len(e.p.aggs))
		}
		for j, a := range e.p.aggs {
			one := refState{n: 1, seen: true}
			if a.kind == aggCountIf && !refHolds(*a.cond, e.cell(refCol{-1, a.col}, match)) {
				one.n = 0
			} else if a.kind != aggCount && a.kind != aggCountIf {
				one.sum = refNum[float64](e.cell(refCol{-1, a.col}, match))
				one.ext = one.sum
			}
			l.groups[k][j].fold(one, a.kind == aggMin)
		}
	}
}

// Merge implements olap.Exec: fold the per-morsel states in slice order,
// emit groups ascending by key, then apply Having and the ordered top-k.
func (e *refExec) Merge(locals []olap.Local) olap.Result {
	aggs := e.p.aggs
	total := map[refKey][]refState{}
	if len(e.p.groups) == 0 {
		total[refKey{}] = make([]refState, len(aggs)) // an ungrouped plan always emits its row
	}
	for _, li := range locals {
		for k, src := range li.(*refLocal).groups {
			if total[k] == nil {
				total[k] = make([]refState, len(aggs))
			}
			for j := range src {
				total[k][j].fold(src[j], aggs[j].kind == aggMin)
			}
		}
	}
	res := olap.Result{Cols: slices.Clone(e.p.groups)}
	for _, a := range aggs {
		res.Cols = append(res.Cols, a.outName())
	}
	byKey := func(a, b refKey) int { return slices.Compare(a[:], b[:]) }
	for _, k := range slices.SortedFunc(maps.Keys(total), byKey) {
		var row []float64
		for d := range e.p.groups {
			row = append(row, float64(k[d]))
		}
		for j, a := range aggs {
			st := total[k][j]
			out := float64(st.n) // count, count-if
			switch {
			case a.kind == aggSum:
				out = st.sum
			case a.kind == aggAvg && st.n > 0:
				out = st.sum / out
			case a.kind == aggMin || a.kind == aggMax:
				out = st.ext
			} // an average over no rows is 0, which is float64(st.n)
			row = append(row, out)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Rows = slices.DeleteFunc(res.Rows, func(row []float64) bool {
		return slices.ContainsFunc(e.p.having, func(pr Pred) bool {
			return !refHolds(pr, row[slices.Index(res.Cols, pr.col)])
		})
	})
	if e.p.orderCol != "" {
		res.SortedRows = int64(len(res.Rows))
		ord := olap.Order{Col: slices.Index(res.Cols, e.p.orderCol), Desc: e.p.orderDesc}
		res.Rows = olap.SortRows(res.Rows, ord, e.p.limit)
	}
	return res
}

// probedTables prepares q and names the table each of its joins probes,
// in execution order; "spec" when Q1's fused loop runs instead of the
// vector loop.
func probedTables(q *Compiled) string {
	exec, _ := q.Prepare()
	e := exec.(*fexec)
	if e.spec != specGeneric {
		return "spec"
	}
	var names []string
	for _, j := range e.joins {
		switch {
		case j.dn != nil:
			names = append(names, "dense")
		case len(j.keyCols) == 1:
			names = append(names, "hash1")
		default:
			names = append(names, "hashK")
		}
	}
	return strings.Join(names, " ")
}

// groupLayout prepares q and names how its group keys address their
// accumulators: "global" (no group key), "cells" (a one-word key's dense
// cells), "packed" (a composite key packed into dense cells), "join" (the
// build row a join's probe resolved) or "spill" (the group table).
func groupLayout(q *Compiled) string {
	exec, _ := q.Prepare()
	switch e := exec.(*fexec); {
	case e.gkind == gNone:
		return "global"
	case e.gkind == gSpill:
		return "spill"
	case e.gkind == gJoin:
		return "join"
	case e.ngroup == 1:
		return "cells"
	}
	return "packed"
}

// serialMerge drives exec, prepared from q, by hand as bench/probe.go
// does: one local per chunk-sized morsel of the fact table, consumed in
// order on this goroutine, then merged with the parts run in turn. It
// returns the result and how many parts the merge handed its fan, 0 when
// it never called the fan.
func serialMerge(e *oltp.Engine, q *Compiled, exec olap.Exec) (olap.Result, int) {
	tab := e.Table(q.FactTable()).Table()
	var locals []olap.Local
	for lo := int64(0); lo < tab.Rows(); lo += columnar.ChunkSize {
		hi := min(lo+columnar.ChunkSize, tab.Rows())
		blk := olap.Block{Base: lo, N: int(hi - lo)}
		for _, c := range q.Columns() {
			blk.Cols = append(blk.Cols, tab.Active().Col(c).Slice(lo, hi))
		}
		l := exec.NewLocal()
		l.Consume(blk)
		locals = append(locals, l)
	}
	parts := 0
	res := exec.(olap.FanMerger).MergeFan(locals, func(n int, part func(int)) {
		parts = n
		olap.SerialFan(n, part)
	})
	return res, parts
}

// TestFusedMatchesReference holds every kernel family — Q1's fused loop
// (dense-group-sum-int-float), the vector loop in all three grouping
// kinds, the post-aggregation stages — to the interpreter, bitwise, at 1,
// 2 and 4 pool workers. The ten-filter and many-aggregate plans have more
// filters and accumulators (34 CountIf never dedupe) than any CH query.
// The two spill- cases fold 40 000 groups from several locals each in
// one merge part, which never calls the fan (only a group join's merge
// fans out); they also hold the merge run serially on hand-driven
// locals, as bench/probe.go runs it, to the pool-run result.
//
// The vector loop's edges have cases of their own: morsels shorter than
// a vector and of a length no multiple of it (the "split" cases run on a
// source cut at row vecLen/2+3), a vector whose every row fails the
// filter between vectors whose rows pass, dense group keys past denseLen
// mixed into vectors of cell keys, and a payload one word wider than the
// vectors Consume keeps on its stack.
//
// The vector probe is covered per table representation and join count.
// Every plan with a join runs a second time with its build sides forced
// through the hash tables ("-hashed"), which turns bdimc's dense table
// into a composite-key hash table and leaves bdim1 (sparse: hashed either
// way) alone:
//
//	            one join                         several joins
//	dense       filter-probe-group-sum           chain-probe-group-sum (bdimc)
//	hash, 1 key probe1-group-sum                 chain-probe-group-sum (bdim1, keyed on bdimc's payload)
//	hash, n key filter-probe-group-sum-hashed    chain-probe-group-sum-hashed (bdimc)
//
// The dup-key cases join bdimdup, whose later rows repeat keys with other
// payloads: the later row wins, in the dense table and in both hash
// tables, as it does in the interpreter.
//
// The pack- cases group on join payload words, whose build-side ranges
// lay out the group cells, dense or hashed: a pair from two joins packs
// (bdimc's pay in [0, 31] by bdimn's na in [3, 27]), one word packs from
// its range's low end, and a pair whose ranges multiply past denseLen
// hashes. The extend- cases bind once and run three times over a
// dimension appended to in between: a duplicate key whose later payload
// widens the range the first execution saw, inside denseLen and then past
// it. The kept build side is extended, not rebuilt, and must widen the
// ranges it carries, or the last execution packs on stale ranges.
//
// The join- cases group on the build row a join's probe resolved
// (gJoin): every key word of bdimc (Q18's shape), its key plus its
// payload (Q3's), bdimdup's key plus payload, whose idx is no identity,
// so a key or payload read at the row's number as if it were its cell is
// another key's, and (split-join-interleaved) bdimgj's (gid, jk), whose
// rows lie 101 apart from one fact row to the next, so one morsel touches
// every one of the side's 100 accumulator blocks; in join-then-semi a
// later join narrows the rows whose build rows the group join recorded. Two plans must not take it: a
// group that misses one of bdimc's key words (join-missing-key-word;
// probe-group-sum-spill as well), and one that adds another join's
// payload to bdimc's key (join-key-other-pay). join-extend-rebuild binds
// once and runs three times over a dimension appended to in between:
// first keys past the packed domain, which rebuild the kept side, then a
// duplicate key with a new payload, which extends it.
func TestFusedMatchesReference(t *testing.T) {
	cat, e := newBenchCatalog(t)
	addDupDim(e)
	addNationDim(e)
	addPairDim(e)
	cases := map[string]*Plan{
		"filter-count-int64":   Scan("bfact").Filter(Between("qty", 10, 40), Ge("gid", 8)).Agg(Count()),
		"filter-count-float64": Scan("bfact").Filter(Between("amount", 20.0, 100.0)).Agg(Count()),
		"filter-count-dict":    Scan("bfact").Filter(Eq("tag", "web")).Agg(Count()),
		"filter-probe-sum": Scan("bfact").Filter(Between("qty", 5, 45)).JoinGraph(semiDim1()).
			Agg(Sum("amount").As("rev")),
		"filter-probe-group-sum": Scan("bfact").Filter(Between("qty", 5, 45)).JoinGraph(joinDimC()).
			GroupBy("pay").Agg(Sum("amount").As("rev")),
		"probe-group-sum-spill": Scan("bfact").JoinGraph(joinDimC()).
			GroupBy("jk", "pay").Agg(Sum("amount").As("rev")),
		// Keyed in the reverse of the columns' load order: the spill table
		// first sees (0,0), (2,1), (4,2), … and (0,16) only later, so its
		// insertion order is not key order, and finishRes alone orders it.
		"probe-group-sum-spill-unsorted": Scan("bfact").JoinGraph(joinDimC()).
			GroupBy("pay", "jk").Agg(Sum("amount").As("rev"), Count().As("n")),
		"probe1-group-sum": Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel("bdim1"), "k1", "id")).
			GroupBy("gid").Agg(Sum("w").As("sw"), Count().As("n")),
		"chain-probe-group-sum": Scan("bfact").Filter(Between("qty", 5, 45)).
			JoinGraph(joinDimC(), JoinOn(Rel("bdimc"), Rel("bdim1"), "pay", "id")).
			GroupBy("pay").Agg(Sum("w").As("sw"), Sum("amount").As("rev")),
		"dense-group-sum-int-float": Scan("bfact").Filter(Between("qty", 5, 45)).
			GroupBy("gid").Agg(Sum("qty").As("sq"), Sum("amount").As("sa")),
		"avg-having-topk": Scan("bfact").Filter(Ge("qty", 3)).GroupBy("gid").
			Agg(Sum("amount").As("rev"), Avg("amount").As("avg_amt"), Count().As("n")).
			Having(Gt("rev", 100)).OrderBy("rev", true).Limit(20),
		// The spill merge: (k3, jk) has 40 000 groups (jk is a function
		// of k3) of 3 or 4 rows, each row in another morsel, so the merge
		// folds partials from several locals per group into one table.
		// About half the groups pass Having; the order column is a count, tied across thousands
		// of groups, so the top 40 is decided by the group keys.
		"spill-having-topk": Scan("bfact").GroupBy("k3", "jk").
			Agg(Sum("amount").As("rev"), Count().As("n")).
			Having(Gt("rev", 230.0)).OrderBy("n", true).Limit(40),
		"spill-unordered-many": Scan("bfact").GroupBy("k3", "jk").
			Agg(Sum("amount").As("rev"), Min("qty"), Avg("amount")),
		"split-chain-probe-group": Scan("bfact").Filter(Between("qty", 5, 45)).
			JoinGraph(joinDimC(), JoinOn(Rel("bdimc"), Rel("bdim1"), "pay", "id")).
			GroupBy("pay").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")),
		"split-dense-spill-mixed": Scan("bfact").Filter(Ne("qty", 7)).GroupBy("gx").
			Agg(Sum("amount"), Avg("qty"), Min("amount"), Max("qty"), Count(), CountIf(Ge("qty", 20)).As("big")),
		// Rows 2·vecLen..3·vecLen-1 of the first morsel are one whole vector.
		"vector-all-fail": Scan("bfact").Filter(Not(Between("k1", 2*vecLen, 3*vecLen-1))).
			JoinGraph(joinDimC()).GroupBy("pay").Agg(Sum("amount").As("rev"), Count().As("n")),
		// Every key past denseLen: the dense cells are never made.
		"dense-all-spill": Scan("bfact").Filter(Between("k1", denseLen, denseLen+2*vecLen)).GroupBy("k1").
			Agg(Sum("amount").As("rev"), Count().As("n"), Max("qty")),
		"dense-spill-mixed-probe": Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel("bdim1"), "k1", "id")).
			GroupBy("gx").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")),
		"dup-key-probe-group": Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel("bdimdup"), "gid", "id")).
			GroupBy("pay").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")),
		"dup-key2-probe-group": Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel("bdimdup"), "gid", "id", "k2", "k2")).
			GroupBy("pay").Agg(Sum("w").As("sw"), Count().As("n")),
		"wide-payload": Scan("bfact").Filter(Between("qty", 5, 45)).
			JoinGraph(JoinOn(Rel("bfact"), Rel("bdimw"), "gid", "id")).
			GroupBy("w0").Agg(wideSums()...),
		"pack-two-joins": Scan("bfact").Filter(Between("qty", 5, 45)).JoinGraph(joinDimC(), joinDimN()).
			GroupBy("pay", "na").Agg(Sum("amount").As("rev"), Count().As("n"), Min("qty")),
		"pack-one-word": Scan("bfact").JoinGraph(joinDimN()).
			GroupBy("na").Agg(Sum("amount").As("rev"), Max("qty")),
		"pack-past-denselen": Scan("bfact").JoinGraph(joinDimC(), joinDimN()).
			GroupBy("nb", "pay").Agg(Sum("amount").As("rev"), Count().As("n")),
		"join-all-keys": Scan("bfact").JoinGraph(joinDimC()).
			GroupBy("jk", "k2").Agg(Sum("amount").As("rev"), Count().As("n")).
			Having(Gt("rev", 60000.0)).OrderBy("rev", true).Limit(30),
		"join-key-pay": Scan("bfact").Filter(Between("qty", 5, 45)).JoinGraph(joinDimC()).
			GroupBy("jk", "k2", "pay").Agg(Sum("amount").As("rev"), Min("qty"), CountIf(Ge("qty", 20)).As("big")),
		"dup-key-join-group": Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel("bdimdup"), "gid", "id")).
			GroupBy("gid", "pay").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")),
		"split-join-interleaved": Scan("bfact").Filter(Ne("qty", 7)).
			JoinGraph(JoinOn(Rel("bfact"), Rel("bdimgj"), "gid", "gid", "jk", "jk")).
			GroupBy("gid", "jk", "gw").Agg(Sum("amount").As("rev"), Count().As("n"), Max("qty")),
		"join-then-semi": Scan("bfact").JoinGraph(joinDimC(), semiDim1()).
			GroupBy("jk", "k2", "pay").Agg(Sum("amount").As("rev"), Count().As("n")),
		"join-missing-key-word": Scan("bfact").JoinGraph(joinDimC()).
			GroupBy("k2").Agg(Sum("pay").As("sp"), Count().As("n")),
		"join-key-other-pay": Scan("bfact").JoinGraph(joinDimC(), joinDimN()).
			GroupBy("jk", "k2", "na").Agg(Sum("amount").As("rev"), Count().As("n")),
	}
	tenFilters := []Pred{Ge("k1", 5), Le("k1", 99990), Ne("jk", 3), Ge("k2", 1), Ne("k2", 48),
		Not(Between("gid", 20, 23)), Between("qty", 3, 48), Ne("qty", 25), Between("amount", 1.5, 140.0), Ne("tag", "phone")}
	manyAggs := []Agg{Sum("amount"), Avg("qty"), Min("amount"), Max("qty"), Count()}
	for i := 0; i < 34; i += 2 {
		manyAggs = append(manyAggs, CountIf(Ge("qty", i+1)).As(fmt.Sprintf("qty_ge_%d", i+1)),
			CountIf(Not(Between("amount", float64(i), float64(i+40)))).As(fmt.Sprintf("amt_out_%d", i)))
	}
	for name, shape := range map[string]func() *Plan{
		"global": func() *Plan { return Scan("bfact") },
		"dense":  func() *Plan { return Scan("bfact").GroupBy("gid") },
		"spill":  func() *Plan { return Scan("bfact").JoinGraph(joinDimC()).GroupBy("jk", "pay") },
	} {
		cases["ten-filters-"+name] = shape().Filter(tenFilters...).Agg(Sum("amount"), Count())
		cases["many-aggs-"+name] = shape().Filter(Between("qty", 5, 45)).Agg(manyAggs...)
	}
	// probed names, for the cells above, the table each join of the plan
	// must be probing through the vector loop.
	probed := map[string]string{
		"filter-probe-group-sum":        "dense",
		"probe1-group-sum":              "hash1",
		"filter-probe-group-sum-hashed": "hashK",
		"chain-probe-group-sum":         "dense hash1",
		"chain-probe-group-sum-hashed":  "hashK hash1",
		"dup-key-probe-group":           "dense",
		"dup-key-probe-group-hashed":    "hash1",
		"dup-key2-probe-group-hashed":   "hashK",
	}
	// layouts names, for the pack- cases, how their group keys must
	// address their accumulators, dense build sides or hashed.
	layouts := map[string]string{
		"pack-two-joins":         "packed",
		"pack-one-word":          "cells",
		"pack-past-denselen":     "spill",
		"join-all-keys":          "join",
		"join-key-pay":           "join",
		"dup-key-join-group":     "join",
		"split-join-interleaved": "join",
		"join-then-semi":         "join",
		"join-missing-key-word":  "cells",
		"join-key-other-pay":     "spill",
		"probe-group-sum-spill":  "spill",
	}
	check := func(name string, plan *Plan, hashed bool) {
		var cuts []int64
		if strings.HasPrefix(name, "split-") {
			cuts = []int64{vecLen/2 + 3}
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				forceHashJoins.Store(hashed)
				defer forceHashJoins.Store(false)
				q, err := plan.Bind(cat)
				if err != nil {
					t.Fatal(err)
				}
				if want, ok := probed[name]; ok {
					if got := probedTables(q); got != want {
						t.Fatalf("the vector loop probes %q, want %q", got, want)
					}
				}
				if want, ok := layouts[strings.TrimSuffix(name, "-hashed")]; ok {
					if got := groupLayout(q); got != want {
						t.Fatalf("group layout %q, want %q", got, want)
					}
				}
				if strings.HasPrefix(name, "split-join-interleaved") {
					if n := blocksTouched(e, q); n < 100 {
						t.Fatalf("the first morsel touches %d accumulator blocks; the keys must interleave", n)
					}
				}
				if strings.HasPrefix(name, "wide-payload") && q.npayTotal <= payStackWords {
					t.Fatalf("the payload is %d words; this case must be wider than the %d Consume keeps on its stack", q.npayTotal, payStackWords)
				}
				fused := runWorkers(t, e, q, workers, cuts...)
				if name == "spill-having-topk" && fused.SortedRows <= int64(len(fused.Rows)) {
					t.Fatalf("%d rows pass Having, %d emitted: the Limit must fall below the survivors", fused.SortedRows, len(fused.Rows))
				}
				if strings.HasPrefix(name, "spill-") {
					exec, _ := q.Prepare()
					serial, parts := serialMerge(e, q, exec)
					if parts != 0 {
						t.Fatalf("the merge fanned out into %d part(s); a spill merge is one part and never calls the fan", parts)
					}
					if !reflect.DeepEqual(serial, fused) {
						t.Fatalf("the serial Merge diverges from the pool-run one:\nserial: %+v\npool:   %+v", serial, fused)
					}
				}
				if strings.HasPrefix(name, "dup-key") && !slices.ContainsFunc(fused.Rows, func(row []float64) bool {
					return row[slices.Index(fused.Cols, "pay")] >= dupPay
				}) {
					t.Fatal("no group carries a later row's payload; the duplicate keys test nothing")
				}
				if ref := runWorkers(t, e, refQuery{plan, cat}, workers, cuts...); !reflect.DeepEqual(fused, ref) {
					t.Fatalf("fused result diverges from the reference:\nfused: %+v\nref:   %+v", fused, ref)
				}
			})
		}
	}
	for name, plan := range cases {
		check(name, plan, false)
		if len(plan.graph) > 0 {
			check(name+"-hashed", plan, true)
		}
	}
	for _, hashed := range []bool{false, true} {
		name := "extend-widens-pack"
		if hashed {
			name += "-hashed"
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				forceHashJoins.Store(hashed)
				defer forceHashJoins.Store(false)
				dim := fmt.Sprintf("bdimgrow-%s-%d", name, workers)
				dt := addGrowDim(e, dim)
				plan := Scan("bfact").JoinGraph(joinDimC(), JoinOn(Rel("bfact"), Rel(dim), "gid", "id")).
					GroupBy("pay", "ng").Agg(Sum("amount").As("rev"), Count().As("n"))
				q, err := plan.Bind(cat)
				if err != nil {
					t.Fatal(err)
				}
				// Each step appends a duplicate key whose later payload
				// widens ng's range: 32 × 21 cells still pack, 32 × 41 do not.
				for step, st := range []struct {
					id, ng int64
					layout string
				}{{-1, 0, "packed"}, {5, 20, "packed"}, {7, 40, "spill"}} {
					if st.id >= 0 {
						dt.AppendRows([][]int64{dt.EncodeRow(st.id, st.ng)}, uint64(step))
					}
					if got := groupLayout(q); got != st.layout {
						t.Fatalf("step %d: group layout %q, want %q", step, got, st.layout)
					}
					fused := runWorkers(t, e, q, workers)
					if ref := runWorkers(t, e, refQuery{plan, cat}, workers); !reflect.DeepEqual(fused, ref) {
						t.Fatalf("step %d: fused result diverges from the reference:\nfused: %+v\nref:   %+v", step, fused, ref)
					}
					if st.id >= 0 && !slices.ContainsFunc(fused.Rows, func(row []float64) bool { return row[1] == float64(st.ng) }) {
						t.Fatalf("step %d: no group carries the appended payload %d", step, st.ng)
					}
				}
				if st := q.BuildStats(); !hashed && st.Extends != 2 {
					t.Fatalf("build stats %+v: want the kept side extended by each append", st)
				}
			})
		}
	}
	for _, hashed := range []bool{false, true} {
		name := "join-extend-rebuild"
		if hashed {
			name += "-hashed"
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				forceHashJoins.Store(hashed)
				defer forceHashJoins.Store(false)
				dim := fmt.Sprintf("bdimgrow-%s-%d", name, workers)
				dt := addGrowDim(e, dim)
				plan := Scan("bfact").JoinGraph(JoinOn(Rel("bfact"), Rel(dim), "k1", "id")).
					GroupBy("k1", "ng").Agg(Sum("amount").As("rev"), Count().As("n"))
				q, err := plan.Bind(cat)
				if err != nil {
					t.Fatal(err)
				}
				// Step 1 appends ids 64..95, past the kept side's packed ids
				// 0..63: it is rebuilt. Step 2 appends id 5 again with a
				// payload no row had: it is extended, and group (5, 17)
				// replaces (5, 5).
				for step, rows := range [][][]int64{nil, growRows(dt, 64, 96), {dt.EncodeRow(int64(5), int64(17))}} {
					if rows != nil {
						dt.AppendRows(rows, uint64(step))
					}
					if got := groupLayout(q); got != "join" {
						t.Fatalf("step %d: group layout %q, want join", step, got)
					}
					fused := runWorkers(t, e, q, workers)
					if ref := runWorkers(t, e, refQuery{plan, cat}, workers); !reflect.DeepEqual(fused, ref) {
						t.Fatalf("step %d: fused result diverges from the reference:\nfused: %+v\nref:   %+v", step, fused, ref)
					}
					if want := [...]float64{63, 95, 5}[step]; !slices.ContainsFunc(fused.Rows, func(row []float64) bool {
						return row[0] == want && (step < 2 || row[1] == 17)
					}) {
						t.Fatalf("step %d: no group for the appended key %v", step, want)
					}
				}
				if st := q.BuildStats(); !hashed && (st.Rebuilds != 2 || st.Extends != 1) {
					t.Fatalf("build stats %+v: want the kept side rebuilt for the new ids and extended for the duplicate", st)
				}
			})
		}
	}
}

// growRows encodes rows (id, id%10) of a grow dimension for ids in
// [lo, hi).
func growRows(t *columnar.Table, lo, hi int64) [][]int64 {
	var rows [][]int64
	for id := lo; id < hi; id++ {
		rows = append(rows, t.EncodeRow(id, id%10))
	}
	return rows
}

// blocksTouched prepares q, a gJoin plan, consumes the fact table's first
// morsel into one local and counts the accumulator blocks it touched.
func blocksTouched(e *oltp.Engine, q *Compiled) int {
	exec, _ := q.Prepare()
	tab := e.Table(q.FactTable()).Table()
	hi := min(int64(columnar.ChunkSize), tab.Rows())
	blk := olap.Block{N: int(hi)}
	for _, c := range q.Columns() {
		blk.Cols = append(blk.Cols, tab.Active().Col(c).Slice(0, hi))
	}
	l := exec.NewLocal()
	l.Consume(blk)
	n := 0
	for _, at := range l.(*flocal).dir {
		if at != 0 {
			n++
		}
	}
	return n
}

// TestPackedKeyOutsideRangePanics drives the assertion of a packed group
// layout. A build side's payload domain covers every word its probe
// gathers, so no key falls outside the cells in a real execution; here
// the layout is narrowed by hand so that pay's values 16..31 do. The
// first vector that holds one must panic rather than mark a wrong cell
// or drop the row.
func TestPackedKeyOutsideRangePanics(t *testing.T) {
	cat, e := newBenchCatalog(t)
	addNationDim(e)
	plan := Scan("bfact").JoinGraph(joinDimC(), joinDimN()).
		GroupBy("pay", "na").Agg(Sum("amount").As("rev"), Count().As("n"), Max("qty"))
	q, err := plan.Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := q.Prepare()
	fe := exec.(*fexec)
	if fe.gkind != gDense || fe.gspan != [maxGroupCols]uint64{32, 25} || fe.glo[1] != 3 {
		t.Fatalf("layout %d, spans %v, na from %d: want packed, spans 32 and 25, na from 3", fe.gkind, fe.gspan, fe.glo[1])
	}
	// The leading word's span can shrink alone: the strides still hold.
	fe.gspan[0] = 16
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "outside the range") {
			t.Fatalf("a packed word outside its range resolved with %v, want the range assertion's panic", r)
		}
	}()
	serialMerge(e, q, exec)
}

// addPairDim loads bdimgj(gid, jk, gw), one row per (gid, jk) pair of
// gid in 0..63 and jk in 0..99, in key order, with gw = (gid+jk)%7.
func addPairDim(e *oltp.Engine) {
	t := e.CreateTable(columnar.Schema{Name: "bdimgj", Columns: []columnar.ColumnDef{
		{Name: "gid", Type: columnar.Int64},
		{Name: "jk", Type: columnar.Int64},
		{Name: "gw", Type: columnar.Int64},
	}}, 16).Table()
	var rows [][]int64
	for g := int64(0); g < 64; g++ {
		for j := int64(0); j < 100; j++ {
			rows = append(rows, t.EncodeRow(g, j, (g+j)%7))
		}
	}
	t.AppendRows(rows, 0)
}

// joinDimN joins bdimn on bfact's gid.
func joinDimN() JoinEdge {
	return JoinOn(Rel("bfact"), Rel("bdimn"), "gid", "id")
}

// addNationDim loads bdimn(id, na, nb), one row per id in 0..63: na takes
// the 25 values 3..27, like a nation key off zero, and nb the 13 values
// 0, 80, …, 960, so nb's range alone fits denseLen and with another
// word's does not.
func addNationDim(e *oltp.Engine) {
	t := e.CreateTable(columnar.Schema{Name: "bdimn", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "na", Type: columnar.Int64},
		{Name: "nb", Type: columnar.Int64},
	}}, 16).Table()
	var rows [][]int64
	for g := int64(0); g < 64; g++ {
		rows = append(rows, t.EncodeRow(g, 3+g*7%25, g%13*80))
	}
	t.AppendRows(rows, 0)
}

// addGrowDim loads a dimension (id, ng) named name, one row per id in
// 0..63 with ng in 0..9, and returns its table.
func addGrowDim(e *oltp.Engine, name string) *columnar.Table {
	t := e.CreateTable(columnar.Schema{Name: name, Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "ng", Type: columnar.Int64},
	}}, 16).Table()
	var rows [][]int64
	for g := int64(0); g < 64; g++ {
		rows = append(rows, t.EncodeRow(g, g%10))
	}
	t.AppendRows(rows, 0)
	return t
}

// wideSums sums every payload word of bdimw but the group key, and a fact
// column.
func wideSums() []Agg {
	aggs := []Agg{Sum("amount").As("rev")}
	for c := 1; c <= payStackWords; c++ {
		aggs = append(aggs, Sum(fmt.Sprintf("w%d", c)))
	}
	return aggs
}

// dupPay is where bdimdup's later payloads start: every earlier one is
// below it.
const dupPay = 8

// addDupDim loads bdimdup(id, k2, pay, w), keyed by id (or by id and k2)
// on bfact's gid (and k2): one row per id in 0..63, then, appended in a
// second batch, a row for every third id again, whose pay and w differ
// from the first row's.
func addDupDim(e *oltp.Engine) {
	t := e.CreateTable(columnar.Schema{Name: "bdimdup", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "k2", Type: columnar.Int64},
		{Name: "pay", Type: columnar.Int64},
		{Name: "w", Type: columnar.Float64},
	}}, 16).Table()
	var first, later [][]int64
	for g := 0; g < 64; g++ {
		first = append(first, t.EncodeRow(int64(g), int64(g%50), int64(g%dupPay), float64(g%90)+1))
		if g%3 == 0 {
			later = append(later, t.EncodeRow(int64(g), int64(g%50), int64(dupPay+g%5), float64(g)+100.5))
		}
	}
	t.AppendRows(first, 0)
	t.AppendRows(later, 1)
}
