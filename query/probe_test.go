package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"elastichtap/internal/columnar"
	"elastichtap/internal/oltp"
)

// TestDenseSingleKeyProbeMatchesReference holds the dense single-key
// probe's two branch-free loops to the interpreter, bitwise, at 1, 2 and
// 4 pool workers, and again with the build sides forced through the hash
// table ("-hashed"). Both loops write every row and advance the kept
// count by whether the row's key resolved, so a defect in that count, in
// the span test or in the build row a kept row records shows as a wrong
// answer here.
//
// bdimh's w filter keeps about half its ids, at random, so the indexed
// loop (the table's idx) meets a hole on about every other key; a second
// batch repeats every seventh id with another payload, so some keys
// resolve to a later row than their first. Its ids start at 1000, so
// bfact's k1 in 0..999 lies below the table's lowest key (k1 − min
// wraps) and k1 from the highest kept id on lies at or past min + span.
// bdimi's ids 500..40499 are loaded in key order with no filter, so its
// table is its own index (the identity loop), with keys outside on both
// sides. In the chain cases the gathered payload p keys bdimn, also an
// identity table, so the rows the first loop kept and the build rows it
// recorded feed a second join.
func TestDenseSingleKeyProbeMatchesReference(t *testing.T) {
	cat, e := newBenchCatalog(t)
	addNationDim(e)
	addHoleDim(e)
	addIdentityDim(e)
	holes := func() JoinEdge {
		return JoinOn(Rel("bfact"), Rel("bdimh").Filter(Between("w", 1.0, 50.0)), "k1", "id")
	}
	ident := func() JoinEdge { return JoinOn(Rel("bfact"), Rel("bdimi"), "k1", "id") }
	chain := JoinOn(Rel("bdimh"), Rel("bdimn"), "p", "id")
	cases := []struct {
		name  string
		plan  *Plan
		forms string // each join's dense single-key loop (probeForms)
	}{
		{"holes-semi", Scan("bfact").JoinGraph(holes()).
			Agg(Sum("amount").As("rev"), Count().As("n")), "indexed"},
		{"holes-filtered-pay", Scan("bfact").Filter(Between("qty", 5, 45)).JoinGraph(holes()).
			GroupBy("p").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")), "indexed"},
		{"holes-pay-chain", Scan("bfact").JoinGraph(holes(), chain).
			GroupBy("na").Agg(Sum("w").As("sw"), Sum("amount").As("rev"), Count().As("n")), "indexed identity"},
		{"identity-pay", Scan("bfact").Filter(Ne("qty", 7)).JoinGraph(ident()).
			GroupBy("gid").Agg(Sum("v").As("sv"), Count().As("n"), Max("amount")), "identity"},
		// The planner probes the more selective side, bdimh, first.
		{"identity-and-holes", Scan("bfact").JoinGraph(ident(), holes()).
			GroupBy("p").Agg(Sum("v").As("sv"), Sum("w").As("sw"), Count().As("n")), "indexed identity"},
	}
	for _, c := range cases {
		for _, hashed := range []bool{false, true} {
			name, forms := c.name, c.forms
			if hashed {
				name += "-hashed"
				forms = strings.TrimSpace(strings.Repeat("hash1 ", strings.Count(forms, " ")+1))
			}
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
					forceHashJoins.Store(hashed)
					defer forceHashJoins.Store(false)
					q, err := c.plan.Bind(cat)
					if err != nil {
						t.Fatal(err)
					}
					if got := probeForms(q); got != forms {
						t.Fatalf("the vector loop probes %q, want %q", got, forms)
					}
					fused := runWorkers(t, e, q, workers)
					if ref := runWorkers(t, e, refQuery{c.plan, cat}, workers); !reflect.DeepEqual(fused, ref) {
						t.Fatalf("fused result diverges from the reference:\nfused: %+v\nref:   %+v", fused, ref)
					}
				})
			}
		}
	}
}

// probeForms prepares q and names the loop each of its joins probes
// through: "indexed" or "identity" for a dense single-key table with or
// without its idx, "hash1" for a single-key hash table, "other" for any
// other.
func probeForms(q *Compiled) string {
	exec, _ := q.Prepare()
	var names []string
	for _, j := range exec.(*fexec).joins {
		switch {
		case j.dn != nil && len(j.keyCols) == 1 && j.dn.idx == nil:
			names = append(names, "identity")
		case j.dn != nil && len(j.keyCols) == 1:
			names = append(names, "indexed")
		case j.dn == nil && len(j.keyCols) == 1:
			names = append(names, "hash1")
		default:
			names = append(names, "other")
		}
	}
	return strings.Join(names, " ")
}

// addHoleDim loads bdimh(id, w, p): one row per id in 1000..60999 with w
// in 1..100 and p in 0..63, both scrambled over the ids, then, appended in
// a second batch, a row for every seventh id again with another w and p.
func addHoleDim(e *oltp.Engine) {
	t := e.CreateTable(columnar.Schema{Name: "bdimh", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "w", Type: columnar.Float64},
		{Name: "p", Type: columnar.Int64},
	}}, 16).Table()
	scramble := func(i, salt uint64) uint64 { return (i*fibMul + salt) >> 40 }
	var first, later [][]int64
	for i := uint64(0); i < 60000; i++ {
		id := int64(1000 + i)
		first = append(first, t.EncodeRow(id, float64(scramble(i, 0)%100+1), int64(scramble(i, 1<<39)%64)))
		if i%7 == 0 {
			later = append(later, t.EncodeRow(id, float64(scramble(i, 3<<38)%100+1), int64(scramble(i, 5<<37)%64)))
		}
	}
	t.AppendRows(first, 0)
	t.AppendRows(later, 1)
}

// addIdentityDim loads bdimi(id, v), one row per id in 500..40499, in key
// order, with v = id % 13.
func addIdentityDim(e *oltp.Engine) {
	t := e.CreateTable(columnar.Schema{Name: "bdimi", Columns: []columnar.ColumnDef{
		{Name: "id", Type: columnar.Int64},
		{Name: "v", Type: columnar.Float64},
	}}, 16).Table()
	var rows [][]int64
	for id := int64(500); id < 40500; id++ {
		rows = append(rows, t.EncodeRow(id, float64(id%13)))
	}
	t.AppendRows(rows, 0)
}
