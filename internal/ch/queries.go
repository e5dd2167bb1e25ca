package ch

import (
	"elastichtap/internal/olap"
	"elastichtap/query"
)

// The paper evaluates CH-Q1 and CH-Q6 (scan-heavy) and CH-Q19 (join-heavy)
// with 100% date selectivity — "the worst case for join and groupby
// operations" (§5.1) — and the LIKE predicate removed from Q19 (§5.3).
// All evaluation queries run as builder-compiled plans (plans.go); the
// hand-coded executors that used to live here are now test-only oracles
// in internal/ch/golden, kept solely so the golden and benchmark suites
// can measure the compiled kernels against them.

// QuerySet returns the analytical mix the scheduler sweeps: the paper's
// evaluation trio (§5.3) in execution order Q1, Q6, Q19, followed by Q3,
// Q12 and Q18 — a payload join with ordered top-k, a conditional-
// aggregation join, and a group-by/having/top-k — so experiments and
// cmd/chbench exercise every work class the cost model distinguishes.
// Every member is a builder-compiled prepared statement stamped with its
// default arguments.
func (db *DB) QuerySet() []olap.Query {
	return []olap.Query{
		db.Stamped("Q1", Q1Args(0)), db.Stamped("Q6", Q6Args(0, 0, 0, 0)), db.Stamped("Q19", Q19Args(0, 0, 0, 0)),
		db.Stamped("Q3", Q3Args(0)), db.Stamped("Q12", Q12Args(0)), db.Stamped("Q18", Q18Args(0)),
	}
}

// Stamped returns the named prepared evaluation query (bound once per DB,
// see PreparedPlan) stamped with args, deferring errors into the returned
// query (they surface when the runner checks Err), so constructor-style
// call sites stay infallible.
func (db *DB) Stamped(name string, args query.Args) olap.Query {
	c, err := db.PreparedPlan(name)
	if err != nil {
		return olap.Invalid{QueryName: name, Reason: err}
	}
	q, err := c.WithArgs(args)
	if err != nil {
		return olap.Invalid{QueryName: name, Reason: err}
	}
	return q
}
