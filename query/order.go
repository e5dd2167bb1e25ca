package query

// Bind-time join resolution and ordering: the join graph's relations
// resolve to dimension handles, payloads settle (inferred from downstream
// demand), and the joins are ordered for execution.
//
// Ordering is greedy and statistics-free, the zero-maintenance policy
// the paper's HTAP setting wants: no histograms or cardinality sketches
// survive the transactional churn, so the planner ranks relations by
// what it can know exactly right now — the dimension's current row
// count, sharpened to an exact match count when an Eq predicate hits a
// secondary index (internal/index), halved per remaining predicate —
// and repeatedly places the smallest placeable relation. Connectivity
// constrains placement: a relation joins only once every source column
// of its key (fact columns, or payloads of other relations) is
// available. Results are order-independent — every join is a lookup
// against a unique dimension key — so ordering affects work, never
// answers.

import (
	"fmt"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// rjoin is one join's Bind-time resolution state.
type rjoin struct {
	spec   *joinSpec
	dh     *oltp.TableHandle
	schema columnar.Schema
	// keySrc names the relation providing each fact-side key column; ""
	// means the fact table itself.
	keySrc []string
	est    int64 // greedy size estimate
	// payBase is the join's first global payload slot, assigned in
	// execution order.
	payBase int
}

// resolveJoins resolves the plan's joins against the catalog and orders
// them. It returns the joins twice — in written (first-mention) order,
// which fixes name resolution and scan-list layout so both ordering
// modes bind to identical metadata, and in execution order — plus any
// predicates the graph attached to the fact relation.
func (p *Plan) resolveJoins(cat Catalog, schema columnar.Schema) (written, ordered []*rjoin, factPreds []Pred, err error) {
	written, factPreds, err = p.resolveGraph(cat, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	ordered, err = orderJoins(written, p.joinOrder)
	if err != nil {
		return nil, nil, nil, err
	}
	return written, ordered, factPreds, nil
}

// resolveGraph turns the edge list into per-relation join specs: edges
// pointing at one relation merge into its composite key, relation
// predicates become build-side filters (fact-relation predicates are
// returned for the scan), and payloads are inferred from downstream
// demand — edge source columns, group keys, aggregate inputs and
// CountIf conditions owned by a relation.
func (p *Plan) resolveGraph(cat Catalog, schema columnar.Schema) ([]*rjoin, []Pred, error) {
	var written []*rjoin
	nodes := map[string]*rjoin{}
	var factPreds []Pred
	seenRel := map[*Relation]bool{}
	notePreds := func(r *Relation) {
		if seenRel[r] {
			return
		}
		seenRel[r] = true
		if r.name == p.table {
			factPreds = append(factPreds, r.preds...)
		} else if n := nodes[r.name]; n != nil {
			n.spec.preds = append(n.spec.preds, r.preds...)
		}
	}
	// First pass: create one node per target relation, merging edge keys.
	for _, e := range p.graph {
		n := nodes[e.to.name]
		if n == nil {
			dh := cat.Handle(e.to.name)
			if dh == nil {
				return nil, nil, fmt.Errorf("query: unknown dimension table %q", e.to.name)
			}
			n = &rjoin{spec: &joinSpec{dim: e.to.name}, dh: dh, schema: dh.Table().Schema()}
			nodes[e.to.name] = n
			written = append(written, n)
		}
		for i, fc := range e.fromCols {
			src := e.from.name
			if src == p.table {
				src = ""
			}
			n.spec.factKeys = append(n.spec.factKeys, fc)
			n.spec.dimKeys = append(n.spec.dimKeys, e.toCols[i])
			n.keySrc = append(n.keySrc, src)
		}
		if len(n.spec.factKeys) > maxJoinCols {
			return nil, nil, fmt.Errorf("query: join key for relation %q exceeds %d columns", e.to.name, maxJoinCols)
		}
	}
	// Second pass: attach relation predicates (the target node now exists
	// even when the relation is first mentioned as an edge source).
	for _, e := range p.graph {
		notePreds(e.from)
		notePreds(e.to)
	}
	for _, e := range p.graph {
		if e.from.name != p.table && nodes[e.from.name] == nil {
			return nil, nil, fmt.Errorf("%w: relation %q is only an edge source and is never joined",
				ErrDisconnectedJoinGraph, e.from.name)
		}
	}
	// Payload inference (a): a non-fact edge source must project the
	// referenced column for the downstream probe to read.
	for _, n := range written {
		for i, src := range n.keySrc {
			if src == "" {
				continue
			}
			owner := nodes[src]
			fk := n.spec.factKeys[i]
			if owner.schema.ColumnIndex(fk) < 0 {
				return nil, nil, fmt.Errorf("query: relation %q has no column %q (join key for %q)",
					src, fk, n.spec.dim)
			}
			addPayload(owner, fk)
		}
	}
	// Payload inference (b): downstream demand owned by exactly one
	// relation projects from it; a name owned by several relations (or a
	// relation and the fact table) is ambiguous — unless every relation
	// holds it only as the key column equated to the fact column of the
	// same name, where both sides carry one value per surviving row and the
	// name reads the fact column.
	var demand []string
	demand = append(demand, p.groups...)
	for _, a := range p.aggs {
		if a.col != "" {
			demand = append(demand, a.col)
		}
		if a.cond != nil {
			demand = append(demand, a.cond.col)
		}
	}
	for _, name := range demand {
		var owners []*rjoin
		for _, n := range written {
			if n.schema.ColumnIndex(name) >= 0 {
				owners = append(owners, n)
			}
		}
		inFact := schema.ColumnIndex(name) >= 0
		if inFact {
			kept := owners[:0]
			for _, n := range owners {
				if !keyedOnFact(n, name) {
					kept = append(kept, n)
				}
			}
			owners = kept
		}
		switch {
		case inFact && len(owners) > 0:
			return nil, nil, fmt.Errorf("%w: %q is reachable from fact table %q and relation %q",
				ErrAmbiguousColumn, name, p.table, owners[0].spec.dim)
		case len(owners) > 1:
			return nil, nil, fmt.Errorf("%w: %q is reachable from relations %q and %q",
				ErrAmbiguousColumn, name, owners[0].spec.dim, owners[1].spec.dim)
		case len(owners) == 1:
			addPayload(owners[0], name)
		}
	}
	return written, factPreds, nil
}

// keyedOnFact reports whether the relation's column col is a key column
// equated to the fact table's own column of the same name.
func keyedOnFact(rj *rjoin, col string) bool {
	for i, dk := range rj.spec.dimKeys {
		if dk == col && rj.spec.factKeys[i] == col && rj.keySrc[i] == "" {
			return true
		}
	}
	return false
}

func addPayload(rj *rjoin, col string) {
	for _, pc := range rj.spec.payload {
		if pc == col {
			return
		}
	}
	rj.spec.payload = append(rj.spec.payload, col)
}

// orderJoins places the joins. A join is placeable once every key
// column sourced from another relation is in a placed relation's
// payload; among placeable joins, OrderGreedy picks the smallest
// estimate (ties break on written order) and OrderWritten the earliest
// written. An unplaceable remainder is a disconnected (or cyclic)
// graph.
func orderJoins(written []*rjoin, mode JoinOrder) ([]*rjoin, error) {
	if len(written) == 0 {
		return nil, nil
	}
	for _, rj := range written {
		rj.est = estimateJoin(rj)
	}
	avail := map[string]bool{}
	placeable := func(rj *rjoin) bool {
		for i, fk := range rj.spec.factKeys {
			if rj.keySrc[i] != "" && !avail[fk] {
				return false
			}
		}
		return true
	}
	ordered := make([]*rjoin, 0, len(written))
	done := make([]bool, len(written))
	for len(ordered) < len(written) {
		best := -1
		for i, rj := range written {
			if done[i] || !placeable(rj) {
				continue
			}
			if best < 0 {
				best = i
				if mode == OrderWritten {
					break
				}
				continue
			}
			if rj.est < written[best].est {
				best = i
			}
		}
		if best < 0 {
			for i, rj := range written {
				if !done[i] {
					return nil, fmt.Errorf("%w: relation %q cannot be placed (no placed relation provides its key columns)",
						ErrDisconnectedJoinGraph, rj.spec.dim)
				}
			}
		}
		done[best] = true
		ordered = append(ordered, written[best])
		for _, pc := range written[best].spec.payload {
			avail[pc] = true
		}
	}
	return ordered, nil
}

// estimateJoin sizes a relation with zero statistics: the dimension's
// current row count, replaced by the exact secondary-index match count
// for Eq predicates on indexed columns, and halved per predicate the
// index cannot answer. Lazy index builds mean the first plan over a
// filtered dimension pays the build; every later plan gets exact counts
// for the rows appended since (the lookup itself extends the index).
func estimateJoin(rj *rjoin) int64 {
	est := rj.dh.Table().Rows()
	for _, pr := range rj.spec.preds {
		if n, ok := indexEqCount(rj.dh, rj.schema, pr); ok {
			if n < est {
				est = n
			}
			continue
		}
		est /= 2
	}
	return est
}

// indexEqCount answers an Eq predicate exactly through the dimension's
// secondary index: the posting count for the literal's word (dictionary
// code for strings). Parameters, non-Eq operators, float columns and
// unindexable columns report ok=false.
func indexEqCount(dh *oltp.TableHandle, schema columnar.Schema, pr Pred) (int64, bool) {
	if pr.op != opEq || dh.Sec == nil {
		return 0, false
	}
	if _, isParam := pr.lo.(param); isParam {
		return 0, false
	}
	col := schema.ColumnIndex(pr.col)
	if col < 0 {
		return 0, false
	}
	var w int64
	switch schema.Columns[col].Type {
	case columnar.Int64:
		v, err := toInt64(pr.col, pr.lo)
		if err != nil {
			return 0, false
		}
		w = v
	case columnar.String:
		s, ok := pr.lo.(string)
		if !ok {
			return 0, false
		}
		code, known := dh.Table().Dict(col).Lookup(s)
		if !known {
			return 0, true // an unknown literal matches nothing, exactly
		}
		w = code
	default:
		return 0, false
	}
	return dh.Sec.CountEq(col, w)
}
