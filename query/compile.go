package query

import (
	"fmt"
	"reflect"

	"elastichtap/internal/columnar"
	"elastichtap/internal/costmodel"
	"elastichtap/internal/olap"
	"elastichtap/internal/oltp"
)

// Catalog resolves table names to storage handles. *ch.DB (re-exported as
// elastichtap.DB) satisfies it.
type Catalog interface {
	Handle(name string) *oltp.TableHandle
}

// aggPlan is one compiled aggregate: its kind, the column slot it reads
// (-1 for Count/CountIf; fact scan slots first, join payload slots after)
// and whether the raw word needs IEEE decoding. CountIf carries the
// compiled condition and the slot it tests.
type aggPlan struct {
	kind     aggKind
	slot     int
	decode   bool
	cond     *ftest
	condSlot int
}

// joinPlan is a compiled hash join: where to probe on the fact side and
// how to build the key→payload table from the dimension.
type joinPlan struct {
	dim        *oltp.TableHandle
	probeSlots []int    // global slots of the key columns (fact scan, or an earlier join's payload)
	keyCols    []int    // dimension physical columns of the keys
	payCols    []int    // dimension physical columns of the projected payload
	preds      []filter // build-side predicates; slot is the dimension column
	// payBase is the join's first global payload index: payload column i
	// occupies slot nscan+payBase+i.
	payBase int
	// words is the per-row broadcast width in 8-byte words — the distinct
	// dimension columns touched (keys, payload, predicate columns) —
	// charged to the cost model as build bytes.
	words int
}

// Compiled is a bound, executable plan. It implements olap.Query, so it
// runs through the engine and the adaptive scheduler exactly like the
// hand-written workload queries. A plan built with Param placeholders
// compiles to a prepared statement: Bind resolves names, types and
// kernels once, and WithArgs stamps values per execution (see params.go).
type Compiled struct {
	name    string
	class   costmodel.WorkClass
	fact    string
	cols    []int
	filters []filter
	// joins holds the compiled hash joins in execution order (greedy; see
	// order.go). Each probes the fact side — or an earlier join's payload
	// — against its dimension build table.
	joins []*joinPlan
	// npayTotal is the total projected payload width across all joins;
	// payload columns occupy global slots nscan..nscan+npayTotal-1.
	npayTotal int
	groups    []int // slots of the group-key columns (fact or payload)
	aggs      []aggPlan
	outCols   []string
	having    []filter // slot is the output column
	order     olap.Order
	ordered   bool
	limit     int
	// params are the predicate sites awaiting WithArgs values, names the
	// cached distinct placeholder names; stamped marks a statement
	// produced by WithArgs as executable.
	params  []paramSite
	names   []string
	stamped bool
	// fuse is the Bind-time accumulator/emit layout (see kernel.go). It is
	// shared by every WithArgs clone: the shape is value-independent, and
	// each Prepare specializes a concrete kernel from the clone's stamped
	// predicate values.
	fuse *fuseShape
	// builds keeps the dense join build tables between executions (see
	// build.go). Like fuse it is one pointer shared by every WithArgs
	// clone; nil for plans without joins.
	builds *buildCache
}

// Name implements olap.Query.
func (c *Compiled) Name() string { return c.name }

// Class implements olap.Query.
func (c *Compiled) Class() costmodel.WorkClass { return c.class }

// FactTable implements olap.Query.
func (c *Compiled) FactTable() string { return c.fact }

// Columns implements olap.Query.
func (c *Compiled) Columns() []int { return c.cols }

// Prepare implements olap.Query: every plan specializes into a
// vectorized kernel from the statement's current predicate values
// (see kernel.go), and each join gets its key→payload build table.
//
// Build sides are not static — orders grows with every NewOrder — so a
// table is never assumed current. A densely keyed build table is kept on
// the bound statement and shared by its WithArgs clones: the next Prepare
// reuses it if the dimension has not grown, extends it with the rows
// appended since, and rebuilds it from the dimension's active instance
// when a key, payload or predicate column has ever been updated in place,
// when the stamped build-side predicate values differ from the ones it
// was filtered by, or when a new key falls outside its packed domain.
// Hashed build tables are rebuilt every time (see build.go for the
// choice). The returned byte count is the join's logical broadcast volume
// — the dimension rows a from-scratch build reads times the columns it
// touches — whatever this call actually read: the cost model prices the
// query, not the cache.
func (c *Compiled) Prepare() (olap.Exec, int64) {
	return c.prepareFused()
}

// Bind compiles the plan against a catalog: table and column names resolve
// to physical indexes, predicates specialize to the column types, and the
// work class is fixed from the plan shape. Join payload columns resolve
// against the dimension's schema and occupy virtual slots after the fact
// scan list, so downstream group-by and aggregation address them exactly
// like scanned columns. The returned query is reusable across executions
// and carries what they share: the fused kernel layout and the dense join
// build tables, which each Prepare brings up to the dimension's current
// rows rather than re-reading it (see Prepare). A fresh Bind starts cold.
func (p *Plan) Bind(cat Catalog) (*Compiled, error) {
	if p == nil {
		return nil, fmt.Errorf("query: nil plan")
	}
	if p.err != nil {
		return nil, p.err
	}
	if isNilCatalog(cat) {
		return nil, fmt.Errorf("query: nil catalog binding %q (no database loaded?)", p.Name())
	}
	h := cat.Handle(p.table)
	if h == nil {
		return nil, fmt.Errorf("query: unknown table %q", p.table)
	}
	tab := h.Table()
	schema := tab.Schema()
	if len(p.aggs) == 0 {
		return nil, fmt.Errorf("query: plan %q has no aggregates; add Agg(query.Count()) at minimum", p.Name())
	}

	// Resolve the join graph first, so payload names are settled (inferred
	// from downstream demand) before the fact scan list forms, and the
	// execution order is fixed (order.go).
	written, ordered, factPreds, err := p.resolveJoins(cat, schema)
	if err != nil {
		return nil, err
	}
	preds := p.preds
	if len(factPreds) > 0 {
		preds = append(append([]Pred(nil), p.preds...), factPreds...)
	}
	isPayload := map[string]bool{}
	payType := map[string]columnar.Type{}
	payOwner := map[string]*rjoin{}
	for _, rj := range written {
		for _, pc := range rj.spec.payload {
			idx := rj.schema.ColumnIndex(pc)
			if idx < 0 {
				return nil, fmt.Errorf("query: dimension %q has no column %q", rj.spec.dim, pc)
			}
			if rj.schema.Columns[idx].Type == columnar.String {
				return nil, fmt.Errorf("query: join payload column %q is a string; only int64 and float64 payloads project", pc)
			}
			if schema.ColumnIndex(pc) >= 0 {
				return nil, fmt.Errorf("%w: join payload column %q is ambiguous: fact table %q has a column of the same name",
					ErrAmbiguousColumn, pc, p.table)
			}
			if other, dup := payOwner[pc]; dup && other != rj {
				return nil, fmt.Errorf("%w: %q is reachable from relations %q and %q",
					ErrAmbiguousColumn, pc, other.spec.dim, rj.spec.dim)
			}
			isPayload[pc] = true
			payType[pc] = rj.schema.Columns[idx].Type
			payOwner[pc] = rj
		}
	}

	// Assemble the scan list: explicit projection order, or reference
	// order (filters, probe keys, group keys, aggregate inputs) over the
	// joins in written order. Join payload columns never scan — the probe
	// materializes them.
	var refs []string
	seen := map[string]bool{}
	addRef := func(col string) {
		if col != "" && !seen[col] && !isPayload[col] {
			seen[col] = true
			refs = append(refs, col)
		}
	}
	for _, pr := range preds {
		if isPayload[pr.col] {
			return nil, fmt.Errorf("query: Filter on join payload column %q; use Relation.Filter (build side) or Having (after aggregation)", pr.col)
		}
		addRef(pr.col)
	}
	for _, rj := range written {
		for i, fk := range rj.spec.factKeys {
			if rj.keySrc[i] != "" {
				continue // sourced from another relation's payload
			}
			addRef(fk)
		}
	}
	for _, g := range p.groups {
		addRef(g)
	}
	for _, a := range p.aggs {
		addRef(a.col)
	}
	scan := p.scanCols
	if len(scan) == 0 {
		scan = refs
	} else {
		listed := map[string]bool{}
		for _, c := range scan {
			listed[c] = true
		}
		for _, r := range refs {
			if !listed[r] {
				return nil, fmt.Errorf("query: plan %q references column %q missing from Scan's projection", p.Name(), r)
			}
		}
	}
	if len(scan) == 0 {
		return nil, fmt.Errorf("query: plan %q scans no columns", p.Name())
	}

	c := &Compiled{
		name: p.Name(),
		fact: p.table,
		cols: make([]int, len(scan)),
	}
	slots := map[string]int{}
	for i, name := range scan {
		idx := schema.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("query: table %q has no column %q", p.table, name)
		}
		c.cols[i] = idx
		slots[name] = i
	}
	// Payload columns take virtual slots after the scanned fact columns,
	// assigned in execution order so a later join can probe an earlier
	// join's payload; the probes fill their vectors per block.
	for _, rj := range ordered {
		rj.payBase = c.npayTotal
		for _, pc := range rj.spec.payload {
			slots[pc] = len(scan) + c.npayTotal
			c.npayTotal++
		}
	}

	for _, pr := range preds {
		idx := schema.ColumnIndex(pr.col) // resolved by the scan-list loop above
		test, err := c.bindPred(pr, schema.Columns[idx].Type, tab.Dict(idx), siteFilter, len(c.filters), 0)
		if err != nil {
			return nil, err
		}
		c.filters = append(c.filters, filter{slot: slots[pr.col], ftest: test})
	}

	for ji, rj := range ordered {
		jp, err := compileJoin(c, rj, ji, schema, slots, payType)
		if err != nil {
			return nil, err
		}
		jp.payBase = rj.payBase
		c.joins = append(c.joins, jp)
	}
	switch {
	case c.npayTotal > 0:
		c.class = costmodel.JoinProject
	case len(c.joins) > 0:
		c.class = costmodel.JoinProbe
	case len(p.groups) > 0:
		c.class = costmodel.ScanGroupBy
	default:
		c.class = costmodel.ScanReduce
	}

	colType := func(name string) columnar.Type {
		if t, ok := payType[name]; ok {
			return t
		}
		return schema.Columns[c.cols[slots[name]]].Type
	}

	for _, g := range p.groups {
		idx, ok := slots[g]
		if !ok {
			return nil, fmt.Errorf("query: group column %q missing from the scan list", g)
		}
		if colType(g) != columnar.Int64 {
			return nil, fmt.Errorf("query: group column %q is %v; only int64 keys are supported", g, colType(g))
		}
		c.groups = append(c.groups, idx)
	}

	for _, g := range p.groups {
		c.outCols = append(c.outCols, g)
	}
	for _, a := range p.aggs {
		ap := aggPlan{kind: a.kind, slot: -1, condSlot: -1}
		switch a.kind {
		case aggCount:
		case aggCountIf:
			slot, ok := slots[a.cond.col]
			if !ok {
				return nil, fmt.Errorf("query: CountIf over unknown column %q", a.cond.col)
			}
			ctab, cschema := tab, schema
			if owner := payOwner[a.cond.col]; owner != nil {
				ctab, cschema = owner.dh.Table(), owner.schema
			}
			idx := cschema.ColumnIndex(a.cond.col)
			test, err := c.bindPred(*a.cond, cschema.Columns[idx].Type, ctab.Dict(idx), siteCond, len(c.aggs), 0)
			if err != nil {
				return nil, err
			}
			ap.cond, ap.condSlot = &test, slot
		default:
			slot, ok := slots[a.col]
			if !ok {
				return nil, fmt.Errorf("query: aggregate %v over unknown column %q", a.kind, a.col)
			}
			switch colType(a.col) {
			case columnar.Int64:
			case columnar.Float64:
				ap.decode = true
			default:
				return nil, fmt.Errorf("query: cannot %v string column %q", a.kind, a.col)
			}
			ap.slot = slot
		}
		c.aggs = append(c.aggs, ap)
		c.outCols = append(c.outCols, a.outName())
	}

	outIndex := func(name string) int {
		for i, n := range c.outCols {
			if n == name {
				return i
			}
		}
		return -1
	}
	for _, pr := range p.having {
		col := outIndex(pr.col)
		if col < 0 {
			return nil, fmt.Errorf("query: Having column %q is not an output column (have %v)", pr.col, c.outCols)
		}
		// Every emitted cell is a float64, whatever the source column.
		test, err := c.bindPred(pr, columnar.Float64, nil, siteHaving, len(c.having), 0)
		if err != nil {
			return nil, err
		}
		c.having = append(c.having, filter{slot: col, ftest: test})
	}
	c.names = paramNames(c.params)
	if p.orderCol != "" {
		col := outIndex(p.orderCol)
		if col < 0 {
			return nil, fmt.Errorf("query: OrderBy column %q is not an output column (have %v)", p.orderCol, c.outCols)
		}
		c.ordered = true
		c.order = olap.Order{Col: col, Desc: p.orderDesc}
		c.limit = p.limit
	} else if p.limit > 0 {
		return nil, fmt.Errorf("query: Limit without OrderBy would be non-deterministic; add OrderBy")
	}
	c.fuse = buildFuseShape(c)
	if len(c.joins) > 0 {
		c.builds = &buildCache{entries: make([]buildEntry, len(c.joins))}
	}
	return c, nil
}

// compileJoin resolves one join's dimension side: key columns (int64 on
// both sides — the fact side may be a fact scan column or an earlier
// join's payload), payload columns and build-side predicates.
// Parameterized build-side predicates record their stamping sites on c,
// keyed by the join's execution index.
func compileJoin(c *Compiled, rj *rjoin, jidx int, schema columnar.Schema, slots map[string]int, payType map[string]columnar.Type) (*joinPlan, error) {
	j := rj.spec
	dh := rj.dh
	dt := dh.Table()
	dschema := rj.schema
	jp := &joinPlan{dim: dh}
	touched := map[int]bool{}
	for i, fk := range j.factKeys {
		slot, ok := slots[fk]
		if !ok {
			return nil, fmt.Errorf("query: join fact key %q missing from the scan list", fk)
		}
		ftype, isPay := payType[fk]
		if !isPay {
			ftype = schema.Columns[schema.ColumnIndex(fk)].Type
		}
		if ftype != columnar.Int64 {
			return nil, fmt.Errorf("query: join fact key %q is not int64", fk)
		}
		kc := dschema.ColumnIndex(j.dimKeys[i])
		if kc < 0 {
			return nil, fmt.Errorf("query: dimension %q has no column %q", j.dim, j.dimKeys[i])
		}
		if dschema.Columns[kc].Type != columnar.Int64 {
			return nil, fmt.Errorf("query: join dimension key %q is not int64", j.dimKeys[i])
		}
		jp.probeSlots = append(jp.probeSlots, slot)
		jp.keyCols = append(jp.keyCols, kc)
		touched[kc] = true
	}
	for _, pc := range j.payload {
		col := dschema.ColumnIndex(pc) // validated in Bind
		jp.payCols = append(jp.payCols, col)
		touched[col] = true
	}
	for _, pr := range j.preds {
		col := dschema.ColumnIndex(pr.col)
		if col < 0 {
			return nil, fmt.Errorf("query: dimension %q has no column %q", j.dim, pr.col)
		}
		test, err := c.bindPred(pr, dschema.Columns[col].Type, dt.Dict(col), siteJoin, len(jp.preds), jidx)
		if err != nil {
			return nil, err
		}
		jp.preds = append(jp.preds, filter{slot: col, ftest: test})
		touched[col] = true
	}
	jp.words = len(touched)
	return jp, nil
}

// isNilCatalog also catches a typed-nil *ch.DB stored in the interface.
func isNilCatalog(cat Catalog) bool {
	if cat == nil {
		return true
	}
	v := reflect.ValueOf(cat)
	return v.Kind() == reflect.Pointer && v.IsNil()
}
