package query

// Graph-shaped join surface: JoinGraph accepts an arbitrary n-way join
// graph — named relation nodes (Rel) composed with directed equi-join
// edges (JoinOn), where an edge's source columns may live on the fact
// table or on any other joined relation. The written edge order carries
// no semantic weight — Bind orders the joins itself (greedily, smallest
// indexed/filtered relation first, subject to connectivity; see order.go)
// and results are identical under every valid order, because each join
// is a lookup against a unique dimension key. The written order only
// breaks ties between equal estimates and lays out the scan list.
//
//	fact := query.Rel("orderline")
//	stock := query.Rel("stock")
//	supp := query.Rel("supplier")
//	p := query.Scan("orderline").
//		JoinGraph(
//			query.JoinOn(fact, stock, "ol_supply_w_id", "s_w_id", "ol_i_id", "s_i_id"),
//			query.JoinOn(stock, supp, "s_su_suppkey", "su_suppkey"),
//		).
//		GroupBy("su_nationkey").
//		Agg(query.Sum("ol_amount").As("revenue"))
//
// Payload projection is inferred: a relation column demanded downstream
// (GroupBy, aggregates, CountIf conditions, or a later edge's source
// side) is projected automatically; a relation with no demanded columns
// degenerates to an existence-only semi-join. Relation predicates
// (Relation.Filter) restrict the relation's build side.

import (
	"errors"
	"fmt"
)

// ErrDisconnectedJoinGraph reports a join graph with a relation that no
// chain of edges connects back to the fact table — including cycles of
// relations that only reference each other. Surfaced by JoinGraph
// eagerly (pure graph shape) and by Bind (after schema resolution), and
// retrievable early via Plan.Err.
var ErrDisconnectedJoinGraph = errors.New("query: join graph is disconnected from the fact table")

// ErrAmbiguousColumn reports a column name reachable from two relations
// of the plan (or from a relation and the fact table), so a downstream
// reference to it cannot be resolved. A relation's key column equated to
// the fact column of the same name is not ambiguous: the join makes them
// equal and the name reads the fact column. Otherwise qualify the plan by
// renaming the column in the schema or restructuring the graph. Surfaced
// at Bind.
var ErrAmbiguousColumn = errors.New("query: ambiguous column")

// maxJoins bounds the number of joined relations in one plan.
const maxJoins = 8

// Relation is a named node of a join graph: a table plus optional
// build-side predicates. The same *Relation value is shared across the
// edges that mention it; two Rel calls with the same name denote the
// same underlying table (self-joins are not supported).
type Relation struct {
	name  string
	preds []Pred
}

// Rel names a relation for composing JoinOn edges.
func Rel(name string) *Relation { return &Relation{name: name} }

// Name returns the relation's table name.
func (r *Relation) Name() string { return r.name }

// Filter appends build-side predicates: only relation rows passing all
// of them participate in the join. For the fact relation the predicates
// push into the scan instead, exactly like Plan.Filter.
func (r *Relation) Filter(preds ...Pred) *Relation {
	r.preds = append(r.preds, preds...)
	return r
}

// JoinEdge is one equi-join edge of a join graph; build with JoinOn and
// install with Plan.JoinGraph.
type JoinEdge struct {
	from, to *Relation
	fromCols []string
	toCols   []string
	err      error
}

// JoinOn builds a directed equi-join edge: rows of to are looked up by
// matching its toCols against from's fromCols, listed as alternating
// from-column, to-column pairs:
//
//	JoinOn(stock, supplier, "s_su_suppkey", "su_suppkey")
//
// from may be the fact relation or any other joined relation (whose
// matched columns are then projected automatically). to must not be the
// fact table — the fact side is always the probe side. All edges
// pointing at one relation merge into a single composite join key, so a
// relation keyed partly by fact columns and partly by another
// relation's columns takes two edges.
func JoinOn(from, to *Relation, on ...string) JoinEdge {
	e := JoinEdge{from: from, to: to}
	switch {
	case from == nil || to == nil:
		e.err = fmt.Errorf("query: JoinOn with nil relation")
	case len(on) == 0 || len(on)%2 != 0:
		e.err = fmt.Errorf("query: JoinOn(%s, %s) takes alternating from/to column pairs, got %d names",
			from.name, to.name, len(on))
	case from.name == to.name:
		e.err = fmt.Errorf("query: JoinOn(%s, %s) joins a relation to itself; self-joins are not supported",
			from.name, to.name)
	case from.name == "" || to.name == "":
		e.err = fmt.Errorf("query: JoinOn with empty relation name")
	}
	if e.err != nil {
		return e
	}
	for i := 0; i < len(on); i += 2 {
		if on[i] == "" || on[i+1] == "" {
			e.err = fmt.Errorf("query: JoinOn(%s, %s) with empty key column name", from.name, to.name)
			return e
		}
		e.fromCols = append(e.fromCols, on[i])
		e.toCols = append(e.toCols, on[i+1])
	}
	return e
}

// JoinGraph installs the plan's join graph. Edges may arrive in any
// order; Bind chooses the execution order (see order.go). The graph's
// shape is validated eagerly — malformed edges, a fact-targeting edge,
// or a relation not connected to the fact table fail the plan here, so
// Plan.Err reports ErrDisconnectedJoinGraph before Bind runs. The check
// is Bind's placement rule (placeJoins) run with no size estimates.
func (p *Plan) JoinGraph(edges ...JoinEdge) *Plan {
	if len(p.graph) > 0 {
		p.fail(fmt.Errorf("query: JoinGraph called twice"))
		return p
	}
	if len(edges) == 0 {
		p.fail(fmt.Errorf("query: JoinGraph with no edges"))
		return p
	}
	for _, e := range edges {
		if e.err != nil {
			p.fail(e.err)
			return p
		}
		if e.to.name == p.table {
			p.fail(fmt.Errorf("query: JoinOn(%s, %s): the fact table cannot be a join target", e.from.name, e.to.name))
			return p
		}
	}
	p.graph = append(p.graph, edges...)
	if _, err := placeJoins(p.table, p.graph, nil); err != nil {
		p.fail(err)
	}
	return p
}
