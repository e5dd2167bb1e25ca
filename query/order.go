package query

// Bind-time join resolution and ordering: the join graph's relations
// resolve to dimension handles, payloads settle (inferred from downstream
// demand), and the joins are ordered for execution.
//
// Ordering is greedy and statistics-free, the zero-maintenance policy
// the paper's HTAP setting wants: no histograms or cardinality sketches
// survive the transactional churn, so the planner ranks relations by
// what it can know exactly right now — the dimension's current row
// count, sharpened to an exact match count when a predicate compiles to
// one word of an indexed column (internal/index), halved per remaining
// predicate — and repeatedly places the smallest placeable relation,
// ties to the first written. Connectivity constrains placement: a
// relation joins only once every relation its key columns come from
// (the fact table, or a relation projecting them as payload) has
// joined. JoinGraph checks the same rule eagerly (placeJoins). Results
// are order-independent — every join is a lookup against a unique
// dimension key — so ordering affects work, never answers.

import (
	"fmt"
	"slices"

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
	// payBase is the join's first global payload slot, assigned in
	// execution order.
	payBase int
}

// resolveJoins resolves the plan's joins against the catalog and orders
// them. It returns the joins twice — in written (first-mention) order,
// which fixes name resolution and scan-list layout, and in execution
// order — plus any predicates the graph attached to the fact relation.
func (p *Plan) resolveJoins(cat Catalog, schema columnar.Schema) (written, ordered []*rjoin, factPreds []Pred, err error) {
	written, factPreds, err = p.resolveGraph(cat, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	est := make([]int64, len(written))
	for i, rj := range written {
		est[i] = estimateJoin(rj)
	}
	order, err := placeJoins(p.table, p.graph, est)
	if err != nil {
		return nil, nil, nil, err
	}
	ordered = make([]*rjoin, len(order))
	for k, i := range order {
		ordered[k] = written[i]
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

// placeJoins is the one placement rule, over relation names: a relation
// is placeable once the source of every edge into it is the fact table or
// an already placed relation, and the placeable relation with the
// smallest estimate goes next, ties to the first mentioned. The
// relations are the edge targets in first-mention order — resolveGraph's
// written order — est holds their estimates (nil: all equal), and the
// result lists their indexes in execution order. A relation left
// unplaced — on an island, on a cycle, or keyed by a relation that is
// never itself joined — disconnects the graph. JoinGraph runs the rule
// without estimates to validate the graph, Bind with estimateJoin's to
// order it.
func placeJoins(fact string, edges []JoinEdge, est []int64) ([]int, error) {
	var buf [maxJoins]string
	rels := buf[:0]
	for _, e := range edges {
		if !slices.Contains(rels, e.to.name) {
			rels = append(rels, e.to.name)
		}
	}
	if len(rels) > maxJoins {
		return nil, fmt.Errorf("query: join graph has %d relations, max %d", len(rels), maxJoins)
	}
	var placed [maxJoins]bool
	isPlaced := func(name string) bool {
		i := slices.Index(rels, name)
		return name == fact || i >= 0 && placed[i]
	}
	order := make([]int, 0, len(rels))
	for len(order) < len(rels) {
		best := -1
	next:
		for i, r := range rels {
			if placed[i] {
				continue
			}
			for _, e := range edges {
				if e.to.name == r && !isPlaced(e.from.name) {
					continue next
				}
			}
			if best < 0 || est != nil && est[i] < est[best] {
				best = i
			}
		}
		if best < 0 {
			for i, r := range rels {
				if !placed[i] {
					return nil, fmt.Errorf("%w: relation %q has no join path from the fact table",
						ErrDisconnectedJoinGraph, r)
				}
			}
		}
		placed[best] = true
		order = append(order, best)
	}
	return order, nil
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
		if n, ok := indexEqCount(rj, pr); ok {
			if n < est {
				est = n
			}
			continue
		}
		est /= 2
	}
	return est
}

// indexEqCount answers a literal predicate exactly when its compiled test
// is a single word — the check narrowing makes — through the dimension's
// secondary index, or when the test never matches.
// Parameters, ranges, float columns and unindexable columns report
// ok=false; a predicate that does not compile is left for compileJoin to
// reject.
func indexEqCount(rj *rjoin, pr Pred) (int64, bool) {
	col := rj.schema.ColumnIndex(pr.col)
	if col < 0 || len(predParams(pr)) > 0 {
		return 0, false
	}
	t, err := compilePred(rj.schema.Columns[col].Type, rj.dh.Table().Dict(col), pr)
	switch {
	case err != nil:
		return 0, false
	case t.kind == fNever:
		return 0, true
	case t.kind != fIntRange || t.ilo != t.ihi:
		return 0, false
	}
	return rj.dh.Sec.CountEq(col, t.ilo)
}
