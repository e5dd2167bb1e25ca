package query

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// paramFixture is a plan touching every parameter site kind: fact filter
// (int range + float), join build-side filter, CountIf condition and a
// Having threshold.
func paramFixture() *Plan {
	return Scan("sales").
		Named("pf").
		Filter(
			Between("day", Param("day_lo"), Param("day_hi")),
			Ge("amount", Param("min_amount")),
		).
		JoinGraph(joinProduct(Le("price", Param("max_price")))).
		GroupBy("day").
		Agg(
			Sum("amount").As("revenue"),
			CountIf(Ge("qty", Param("min_qty"))).As("bulk"),
		).
		Having(Gt("revenue", Param("min_revenue")))
}

// literalFixture is paramFixture with the values inlined.
func literalFixture(dayLo, dayHi int64, minAmount, maxPrice float64, minQty int64, minRevenue float64) *Plan {
	return Scan("sales").
		Named("pf").
		Filter(
			Between("day", dayLo, dayHi),
			Ge("amount", minAmount),
		).
		JoinGraph(joinProduct(Le("price", maxPrice))).
		GroupBy("day").
		Agg(
			Sum("amount").As("revenue"),
			CountIf(Ge("qty", minQty)).As("bulk"),
		).
		Having(Gt("revenue", minRevenue))
}

func pfArgs(dayLo, dayHi int64, minAmount, maxPrice float64, minQty int64, minRevenue float64) Args {
	return Args{
		"day_lo": dayLo, "day_hi": dayHi, "min_amount": minAmount,
		"max_price": maxPrice, "min_qty": minQty, "min_revenue": minRevenue,
	}
}

// TestParamStampMatchesLiteralBind stamps every site kind and requires
// results identical to binding the literal plan — across several
// argument sets reusing one prepared statement.
func TestParamStampMatchesLiteralBind(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := paramFixture().Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"day_hi", "day_lo", "max_price", "min_amount", "min_qty", "min_revenue"}
	if got := stmt.ParamNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ParamNames = %v, want %v", got, want)
	}
	cases := []struct {
		dayLo, dayHi int64
		minAmount    float64
		maxPrice     float64
		minQty       int64
		minRevenue   float64
	}{
		{1, 3, 0, 100, 0, 0},
		{1, 2, 5, 4, 2, 10},
		{2, 3, 0, 3.25, 3, 0},
		{3, 3, 100, 100, 1, 1e9}, // empty result: filters reject everything
	}
	for i, tc := range cases {
		q, err := stmt.WithArgs(pfArgs(tc.dayLo, tc.dayHi, tc.minAmount, tc.maxPrice, tc.minQty, tc.minRevenue))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		lit, err := literalFixture(tc.dayLo, tc.dayHi, tc.minAmount, tc.maxPrice, tc.minQty, tc.minRevenue).Bind(cat)
		if err != nil {
			t.Fatalf("case %d: literal bind: %v", i, err)
		}
		got, want := run(t, e, q), run(t, e, lit)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: stamped != literal\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestParamStringDictionary stamps a string parameter through the
// dictionary, including a value absent from it (never-match, like an
// inline unknown literal).
func TestParamStringDictionary(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := Scan("sales").
		Filter(Eq("tag", Param("tag"))).
		Agg(Count().As("n")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tag  string
		want float64
	}{{"web", 3}, {"store", 2}, {"fax", 0}} {
		q, err := stmt.WithArgs(Args{"tag": tc.tag})
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, e, q).Rows[0][0]; got != tc.want {
			t.Errorf("tag=%q: count = %v, want %v", tc.tag, got, tc.want)
		}
	}
	// Ordered comparisons on string columns are rejected at Bind, for
	// parameters exactly like for literals.
	_, err = Scan("sales").
		Filter(Gt("tag", Param("tag"))).
		Agg(Count()).
		Bind(cat)
	if err == nil || !strings.Contains(err.Error(), "only Eq/Ne") {
		t.Fatalf("ordered string param bind = %v, want Eq/Ne error", err)
	}
}

// TestParamArgValidation covers the argument-set contract: unstamped
// statements refuse to execute, missing/unknown names fail, wrong value
// types fail with ErrPredType, and parameterless statements reject args;
// a bad literal beside a placeholder fails at Bind at every site kind.
func TestParamArgValidation(t *testing.T) {
	cat, _ := newFixture(t)
	stmt, err := Scan("sales").
		Filter(Ge("day", Param("since"))).
		Agg(Count()).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Err(); err == nil || !strings.Contains(err.Error(), "unbound parameters") {
		t.Fatalf("unstamped Err = %v, want unbound-parameters error", err)
	}
	if _, err := stmt.WithArgs(nil); err == nil {
		t.Fatal("missing argument must fail")
	}
	if _, err := stmt.WithArgs(Args{"since": 1, "until": 2}); err == nil {
		t.Fatal("unknown argument must fail")
	}
	if _, err := stmt.WithArgs(Args{"since": "monday"}); !errors.Is(err, ErrPredType) {
		t.Fatalf("string for int column = %v, want ErrPredType", err)
	}
	if _, err := stmt.WithArgs(Args{"since": 1.5}); !errors.Is(err, ErrPredType) {
		t.Fatalf("fractional for int column = %v, want ErrPredType", err)
	}
	q, err := stmt.WithArgs(Args{"since": 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Err(); err != nil {
		t.Fatalf("stamped Err = %v, want nil", err)
	}

	plain, err := Scan("sales").Filter(Ge("day", 0)).Agg(Count()).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WithArgs(Args{"x": 1}); err == nil {
		t.Fatal("args for parameterless statement must fail")
	}
	if got, err := plain.WithArgs(nil); err != nil || got != plain {
		t.Fatalf("WithArgs(nil) on parameterless = (%v, %v), want receiver", got, err)
	}
	if _, err := Scan("sales").
		Filter(Ge("day", Param(""))).
		Agg(Count()).
		Bind(cat); err == nil {
		t.Fatal("empty parameter name must fail at Bind")
	}
	// A literal mixed in beside a placeholder is type-checked at Bind,
	// not rediscovered on every stamping — at every predicate site.
	for _, site := range []struct {
		name string
		plan func(lit any) *Plan
	}{
		{"fact filter", func(lit any) *Plan {
			return Scan("sales").Filter(Between("day", Param("lo"), lit)).Agg(Count())
		}},
		{"build side", func(lit any) *Plan {
			return Scan("sales").JoinGraph(joinProduct(Between("price", Param("lo"), lit))).Agg(Count())
		}},
		{"CountIf", func(lit any) *Plan {
			return Scan("sales").Agg(CountIf(Between("qty", Param("lo"), lit)))
		}},
		{"Having", func(lit any) *Plan {
			return Scan("sales").GroupBy("day").Agg(Sum("amount").As("rev")).Having(Between("rev", Param("lo"), lit))
		}},
	} {
		if _, err := site.plan("oops").Bind(cat); !errors.Is(err, ErrPredType) {
			t.Errorf("%s: mixed bad literal at Bind = %v, want ErrPredType", site.name, err)
		}
		if _, err := site.plan(9).Bind(cat); err != nil {
			t.Errorf("%s: mixed good literal at Bind = %v, want nil", site.name, err)
		}
	}
}

// TestStmtReuseFastPath: stamping the same values twice gives two
// executions with the same results, different values stamp afresh, an
// earlier stamping keeps its values after later ones, and stamping an
// already-stamped clone is the same as stamping the statement.
func TestStmtReuseFastPath(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := paramFixture().Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	argsA := pfArgs(1, 3, 0, 100, 0, 0)
	qa1, err := stmt.WithArgs(argsA)
	if err != nil {
		t.Fatal(err)
	}
	qa2, err := stmt.WithArgs(pfArgs(1, 3, 0, 100, 0, 0)) // fresh map, same values
	if err != nil {
		t.Fatal(err)
	}
	qb, err := stmt.WithArgs(pfArgs(2, 3, 0, 3.25, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if qb == qa1 {
		t.Fatal("different args must produce a fresh stamping")
	}
	// The superseded stamping keeps its values and results.
	wantA := run(t, e, qa1)
	litA, err := literalFixture(1, 3, 0, 100, 0, 0).Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantA, run(t, e, litA)) {
		t.Fatal("earlier stamping diverged from literal bind")
	}
	if !reflect.DeepEqual(wantA, run(t, e, qa2)) {
		t.Fatal("stamping the same values twice diverged")
	}
	// Re-stamping a clone stamps from the statement's sites, not from
	// the clone's values.
	qa3, err := qb.WithArgs(pfArgs(1, 3, 0, 100, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantA, run(t, e, qa3)) {
		t.Fatal("stamping a clone diverged from stamping the statement")
	}
}

// TestStmtReuseCacheDefensiveCopy: a caller mutating its args map after
// WithArgs must not change the statement that call returned, and the
// next call with the mutated map stamps the new values.
func TestStmtReuseCacheDefensiveCopy(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := Scan("sales").
		Filter(Ge("day", Param("since"))).
		Agg(Count().As("n")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	args := Args{"since": int64(2)}
	q2, err := stmt.WithArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	args["since"] = int64(3) // mutate the caller's map after the call
	q3, err := stmt.WithArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	if q3 == q2 {
		t.Fatal("mutated args returned the earlier stamping")
	}
	if got := run(t, e, q2).Rows[0][0]; got != 4 {
		t.Fatalf("since=2: count = %v, want 4", got)
	}
	if got := run(t, e, q3).Rows[0][0]; got != 2 {
		t.Fatalf("since=3: count = %v, want 2", got)
	}
}

// TestStmtReuseConcurrent stamps one prepared statement from many
// goroutines with different values; run under -race this verifies that
// stamping shares nothing mutable and every caller gets its own values.
func TestStmtReuseConcurrent(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := Scan("sales").
		Filter(Ge("day", Param("since"))).
		Agg(Count().As("n")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]float64{1: 6, 2: 4, 3: 2}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		since := int64(g%3 + 1)
		go func() {
			for i := 0; i < 50; i++ {
				q, err := stmt.WithArgs(Args{"since": since})
				if err != nil {
					done <- err
					return
				}
				if got := run(t, e, q).Rows[0][0]; got != want[since] {
					done <- errors.New("wrong count under concurrency")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStmtReuseBeatsRebind: re-executing a prepared statement must be
// strictly cheaper than rebinding the plan — a stamping recompiles only
// the parameterized predicate slots, a Bind resolves the whole plan.
func TestStmtReuseBeatsRebind(t *testing.T) {
	cat, _ := newFixture(t)
	stmt, err := paramFixture().Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	args := pfArgs(1, 3, 0, 100, 0, 0)
	reuse := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stmt.WithArgs(args); err != nil {
				b.Fatal(err)
			}
		}
	})
	rebind := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := literalFixture(1, 3, 0, 100, 0, 0).Bind(cat); err != nil {
				b.Fatal(err)
			}
		}
	})
	if reuse.NsPerOp() >= rebind.NsPerOp() {
		t.Fatalf("reuse %v ns/op not faster than rebind %v ns/op", reuse.NsPerOp(), rebind.NsPerOp())
	}
}

// TestParamStampIsolation verifies WithArgs never mutates the prepared
// statement: two stampings coexist and the first keeps its values.
func TestParamStampIsolation(t *testing.T) {
	cat, e := newFixture(t)
	stmt, err := Scan("sales").
		Filter(Ge("day", Param("since"))).
		Agg(Count().As("n")).
		Bind(cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := stmt.WithArgs(Args{"since": 2})
	if err != nil {
		t.Fatal(err)
	}
	q3, err := stmt.WithArgs(Args{"since": 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, e, q3).Rows[0][0]; got != 2 {
		t.Fatalf("since=3: count = %v, want 2", got)
	}
	if got := run(t, e, q2).Rows[0][0]; got != 4 {
		t.Fatalf("since=2 after stamping since=3: count = %v, want 4", got)
	}
	if stmt.Err() == nil {
		t.Fatal("prepared statement must remain unstamped")
	}
}
