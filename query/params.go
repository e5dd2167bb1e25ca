package query

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"elastichtap/internal/columnar"
)

// Param is a named placeholder usable anywhere a predicate literal is:
// Filter, Relation.Filter, Having, CountIf conditions, and either end of
// a Between. A plan containing parameters binds once (catalog lookup,
// predicate typing, kernel selection) and is then stamped per execution
// with WithArgs, which substitutes values into the compiled predicate
// tests without re-running compilation:
//
//	plan := query.Scan("orderline").
//		Filter(query.Ge("ol_delivery_d", query.Param("since"))).
//		Agg(query.Sum("ol_amount").As("revenue"))
//	stmt, _ := plan.Bind(db)                            // once
//	q, _ := stmt.WithArgs(query.Args{"since": day})     // per execution
//
// The same name may appear in several predicates; every occurrence
// receives the same value.
func Param(name string) any { return param{name: name} }

// Args carries the values for a statement's named parameters, one entry
// per distinct Param name. Values follow the same conversion rules as
// literals (Go integers and float64 for numeric columns, string for
// string columns); mismatches fail with ErrPredType at stamping time.
type Args map[string]any

// param is the placeholder value Param returns.
type param struct{ name string }

func (p param) String() string { return ":" + p.name }

// siteKind locates a parameterized predicate inside a Compiled.
type siteKind int8

const (
	siteFilter siteKind = iota // Compiled.filters[idx]
	siteJoin                   // Compiled.joins[jidx].preds[idx]
	siteHaving                 // Compiled.having[idx]
	siteCond                   // Compiled.aggs[idx].cond
)

// paramSite is one predicate awaiting its values: the original predicate
// (with placeholders), the bound column's storage type, the dictionary
// for string columns, and where the stamped test must land (jidx selects
// the join for siteJoin sites). Recording the site at Bind is what lets
// WithArgs skip compilation entirely: name resolution, type analysis and
// slot assignment are already done.
type paramSite struct {
	kind siteKind
	idx  int
	jidx int
	pred Pred
	typ  columnar.Type
	dict *columnar.Dict
}

// predParams returns the placeholder names a predicate references.
func predParams(pr Pred) []string {
	var names []string
	if p, ok := pr.lo.(param); ok {
		names = append(names, p.name)
	}
	if p, ok := pr.hi.(param); ok {
		names = append(names, p.name)
	}
	return names
}

// noteParams validates a parameterized predicate against its bound
// column and records the stamping site. Everything knowable at Bind is
// checked here — operator/type rules and any literal mixed in alongside
// a placeholder (Between with one fixed end) — so Prepare surfaces type
// errors once and only the placeholder values arrive later.
func (c *Compiled) noteParams(pr Pred, typ columnar.Type, dict *columnar.Dict, kind siteKind, idx, jidx int) error {
	for _, n := range predParams(pr) {
		if n == "" {
			return fmt.Errorf("query: Param with empty name on column %q", pr.col)
		}
	}
	if typ == columnar.String && pr.op != opEq && pr.op != opNe {
		return fmt.Errorf("query: string column %q supports only Eq/Ne, got %v", pr.col, pr.op)
	}
	checkLiteral := func(v any) error {
		if _, ok := v.(param); ok {
			return nil
		}
		switch typ {
		case columnar.Int64:
			_, err := toInt64(pr.col, v)
			return err
		case columnar.Float64:
			_, err := toFloat64(pr.col, v)
			return err
		default: // columnar.String
			if _, ok := v.(string); !ok {
				return fmt.Errorf("query: string column %q compared with %v (%T): %w", pr.col, v, v, ErrPredType)
			}
			return nil
		}
	}
	if err := checkLiteral(pr.lo); err != nil {
		return err
	}
	if pr.op == opBetween || pr.op == opNotBetween {
		if err := checkLiteral(pr.hi); err != nil {
			return err
		}
	}
	c.params = append(c.params, paramSite{kind: kind, idx: idx, jidx: jidx, pred: pr, typ: typ, dict: dict})
	return nil
}

// paramNames computes the distinct placeholder names across the
// recorded sites; Bind caches the result so per-execution stamping never
// rebuilds it.
func paramNames(sites []paramSite) []string {
	set := map[string]bool{}
	for _, s := range sites {
		for _, n := range predParams(s.pred) {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParamNames returns the statement's distinct parameter names, sorted.
// Empty for fully-literal plans.
func (c *Compiled) ParamNames() []string {
	return append([]string(nil), c.names...)
}

// Err reports whether the compiled plan is executable as-is: a statement
// with unbound parameters must be stamped with WithArgs first. The
// runner checks this before admission, so executing an unstamped
// statement fails with a descriptive error instead of scanning against
// never-matching placeholder predicates.
func (c *Compiled) Err() error {
	if len(c.params) > 0 && !c.stamped {
		return fmt.Errorf("query: %s has unbound parameters %v; call WithArgs", c.name, c.ParamNames())
	}
	return nil
}

// WithArgs stamps parameter values into the compiled predicate tests and
// returns an executable statement. The receiver is never mutated: each
// call clones the few predicate slots that carry parameters, so one
// prepared statement serves concurrent executions with different
// arguments. No catalog lookup, type analysis or kernel selection runs
// here — only the literal-to-test canonicalization a fresh Bind would
// perform on the same values, which is why stamped executions are
// bitwise identical to rebinding the plan with the values inlined.
//
// Every parameter must be supplied and every supplied name must be a
// parameter; value/column type mismatches fail with ErrPredType exactly
// like inline literals. For a parameterless statement WithArgs(nil)
// returns the receiver unchanged.
func (c *Compiled) WithArgs(args Args) (*Compiled, error) {
	if len(c.params) == 0 {
		if len(args) > 0 {
			return nil, fmt.Errorf("query: %s takes no parameters, got %d", c.name, len(args))
		}
		return c, nil
	}
	// c.names is small and sorted; linear membership checks avoid any
	// per-execution allocation on this hot path.
	for _, n := range c.names {
		if _, ok := args[n]; !ok {
			return nil, fmt.Errorf("query: %s: missing argument for parameter %q", c.name, n)
		}
	}
	if len(args) > len(c.names) {
		for n := range args {
			if !slices.Contains(c.names, n) {
				return nil, fmt.Errorf("query: %s: argument %q matches no parameter (have %v)", c.name, n, c.names)
			}
		}
	}
	// Reuse fast path: identical values to the last stamping return the
	// cached clone with no cloning or canonicalization at all.
	if c.cache != nil {
		if hit := c.cache.get(args); hit != nil {
			return hit, nil
		}
	}

	// Clone only the slices that actually carry parameter sites; the
	// rest of the statement is shared read-only with every execution.
	clone := *c
	var stampedKinds [4]bool
	for _, s := range c.params {
		stampedKinds[s.kind] = true
	}
	if stampedKinds[siteFilter] {
		clone.filters = slices.Clone(c.filters)
	}
	if stampedKinds[siteHaving] {
		clone.having = slices.Clone(c.having)
	}
	if stampedKinds[siteCond] {
		clone.aggs = slices.Clone(c.aggs)
	}
	if stampedKinds[siteJoin] {
		// Clone only the joins that actually carry sites; the rest share
		// their joinPlans read-only with the receiver.
		clone.joins = slices.Clone(c.joins)
		cloned := make([]bool, len(c.joins))
		for _, s := range c.params {
			if s.kind != siteJoin || cloned[s.jidx] {
				continue
			}
			j := *c.joins[s.jidx]
			j.preds = slices.Clone(j.preds)
			clone.joins[s.jidx] = &j
			cloned[s.jidx] = true
		}
	}
	for _, s := range c.params {
		pr := s.pred
		pr.lo = resolveArg(pr.lo, args)
		pr.hi = resolveArg(pr.hi, args)
		var t ftest
		var err error
		if s.kind == siteHaving {
			// Having compares emitted float64 cells regardless of the
			// source column's storage type.
			t, err = makeFloatTest(pr)
		} else {
			switch s.typ {
			case columnar.Int64:
				t, err = makeIntTest(pr)
			case columnar.Float64:
				t, err = makeFloatTest(pr)
			case columnar.String:
				t, err = makeStringTest(s.dict, pr)
			default:
				err = fmt.Errorf("query: unsupported parameter column type for %q", pr.col)
			}
		}
		if err != nil {
			return nil, err
		}
		switch s.kind {
		case siteFilter:
			clone.filters[s.idx].ftest = t
		case siteJoin:
			clone.joins[s.jidx].preds[s.idx].ftest = t
		case siteHaving:
			clone.having[s.idx].ftest = t
		case siteCond:
			tc := t
			clone.aggs[s.idx].cond = &tc
		}
	}
	clone.stamped = true
	if c.cache != nil && cacheableArgs(args) {
		c.cache.put(args, &clone)
	}
	return &clone, nil
}

// resolveArg substitutes a placeholder with its argument; literals pass
// through untouched.
func resolveArg(v any, args Args) any {
	if p, ok := v.(param); ok {
		return args[p.name]
	}
	return v
}

// stmtCache remembers the most recently stamped execution of a prepared
// statement, so re-executing with unchanged argument values returns the
// cached clone instead of re-cloning predicate slots and re-running the
// literal-to-test canonicalization. Dashboards refreshing one statement
// with fixed parameters hit this path on every execution after the
// first. A stamped statement is never mutated afterwards (Prepare builds
// a fresh exec), so sharing the cached clone across concurrent
// executions is safe.
type stmtCache struct {
	mu sync.Mutex
	//htap:guardedby mu
	args    Args      // always a defensive copy with comparable scalar values
	stamped *Compiled //htap:guardedby mu
}

// get returns the cached statement when args match the last-stamped
// values exactly, nil otherwise.
func (sc *stmtCache) get(args Args) *Compiled {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stamped == nil || !argsEqual(sc.args, args) {
		return nil
	}
	return sc.stamped
}

// put records a freshly stamped statement under a defensive copy of its
// args, so a caller mutating the map after the call cannot poison the
// cache.
func (sc *stmtCache) put(args Args, stamped *Compiled) {
	cp := make(Args, len(args))
	for k, v := range args {
		cp[k] = v
	}
	sc.mu.Lock()
	sc.args, sc.stamped = cp, stamped
	sc.mu.Unlock()
}

// comparableArg reports whether a value participates in cache equality:
// exactly the scalar kinds predicates accept. Anything else bypasses the
// reuse path rather than risking a panic on ==.
func comparableArg(v any) bool {
	switch v.(type) {
	case int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string:
		return true
	}
	return false
}

// cacheableArgs reports whether every value is a comparable scalar.
func cacheableArgs(args Args) bool {
	for _, v := range args {
		if !comparableArg(v) {
			return false
		}
	}
	return true
}

// argsEqual compares argument sets by value. The stored side is known
// comparable; the incoming side is re-checked to keep == panic-free.
func argsEqual(stored, incoming Args) bool {
	if len(stored) != len(incoming) {
		return false
	}
	for k, sv := range stored {
		iv, ok := incoming[k]
		if !ok || !comparableArg(iv) || sv != iv {
			return false
		}
	}
	return true
}
