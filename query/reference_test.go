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
// in execution order; "spec" when a monomorphic loop runs instead of the
// generic ones.
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

// TestFusedMatchesReference holds every kernel family — each monomorphic
// fast loop, the generic loops in all three grouping kinds, the
// post-aggregation stages — to the interpreter, bitwise, at 1, 2 and 4
// pool workers. The ten-filter and many-aggregate plans have more filters
// and accumulators (34 CountIf never dedupe) than any CH query.
//
// The generic probe is covered per table representation and join count.
// Every plan with a join runs a second time with its build sides forced
// through the hash tables ("-hashed"), which turns bdimc's dense table
// into a composite-key hash table and leaves bdim1 (sparse: hashed either
// way) alone:
//
//	            one join                         several joins
//	dense       filter-probe-group-sum           chain-probe-group-sum (bdimc)
//	hash, 1 key probe1-group-sum                 chain-probe-group-sum (bdim1, keyed on bdimc's payload)
//	hash, n key filter-probe-group-sum-hashed    chain-probe-group-sum-hashed (bdimc)
func TestFusedMatchesReference(t *testing.T) {
	cat, e := newBenchCatalog(t)
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
	// probed names, for the six cells above, the table each join of the
	// plan must be probing through the generic loops.
	probed := map[string]string{
		"filter-probe-group-sum":        "dense",
		"probe1-group-sum":              "hash1",
		"filter-probe-group-sum-hashed": "hashK",
		"chain-probe-group-sum":         "dense hash1",
		"chain-probe-group-sum-hashed":  "hashK hash1",
	}
	check := func(name string, plan *Plan, hashed bool) {
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
						t.Fatalf("the generic loops probe %q, want %q", got, want)
					}
				}
				fused := runWorkers(t, e, q, workers)
				if ref := runWorkers(t, e, refQuery{plan, cat}, workers); !reflect.DeepEqual(fused, ref) {
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
}
