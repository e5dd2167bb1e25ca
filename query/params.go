package query

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"elastichtap/internal/columnar"
)

// ErrPredType reports a predicate literal whose Go type cannot compare
// against the bound column: a string against an int64 column, a float
// with a fractional part against an integer column, an int against a
// string column. Bind wraps it with the offending column and value, so
// errors.Is(err, ErrPredType) distinguishes literal-type mistakes from
// unknown-name errors.
var ErrPredType = errors.New("predicate literal type mismatch")

// fkind selects a filter evaluation strategy. Ordered predicates compile
// to canonical inclusive ranges (Gt v becomes [v+1, max] for integers and
// [nextafter(v), +inf] for floats), so block filtering runs as tight
// range loops with no per-row calls.
type fkind int8

const (
	fIntRange fkind = iota // also string dictionary codes
	fIntNe
	fIntNotRange
	fFloatRange
	fFloatNe
	fFloatNotRange
	fNever // statically unsatisfiable
)

// ftest is a compiled predicate test over raw column words.
type ftest struct {
	kind     fkind
	ilo, ihi int64
	flo, fhi float64
}

// match evaluates the test against one raw column word (dimension
// builds, and fact-side predicates that do not canonicalize to a range).
func (t *ftest) match(w int64) bool {
	switch t.kind {
	case fIntRange:
		return w >= t.ilo && w <= t.ihi
	case fIntNe:
		return w != t.ilo
	case fIntNotRange:
		return w < t.ilo || w > t.ihi
	case fFloatRange:
		d := columnar.DecodeFloat(w)
		return d >= t.flo && d <= t.fhi
	case fFloatNe:
		return columnar.DecodeFloat(w) != t.flo
	case fFloatNotRange:
		d := columnar.DecodeFloat(w)
		return d < t.flo || d > t.fhi
	default:
		return false
	}
}

// fmatch evaluates the test against an already-decoded float64 — the cell
// type of emitted result rows (Having predicates).
func (t *ftest) fmatch(v float64) bool {
	switch t.kind {
	case fFloatRange:
		return v >= t.flo && v <= t.fhi
	case fFloatNe:
		return v != t.flo
	case fFloatNotRange:
		return v < t.flo || v > t.fhi
	default:
		return false
	}
}

// filter is one compiled predicate site: a test and the word it reads —
// a scan slot for fact filters, the dimension's physical column for
// build-side predicates (evaluated row-at-a-time during build), the
// output column for Having.
type filter struct {
	slot int
	ftest
}

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

// compilePred is the one predicate compiler: it specializes a predicate
// holding values to a test over the column's storage type — raw words for
// int64, decoded IEEE values for float64 (the type Having records, since
// every emitted cell is one), dictionary codes for strings (equality
// only; dict is set only for string columns). Ordered comparisons
// canonicalize to inclusive ranges so the block path needs no per-row
// calls. Bind compiles literals with it, validates placeholders with it
// and estimates joins with it; WithArgs stamps with it, so stamped tests
// are identical to freshly compiled ones.
func compilePred(typ columnar.Type, dict *columnar.Dict, pr Pred) (ftest, error) {
	switch typ {
	case columnar.Int64:
		return makeIntTest(pr)
	case columnar.Float64:
		return makeFloatTest(pr)
	case columnar.String:
		return makeStringTest(dict, pr)
	}
	return ftest{}, fmt.Errorf("query: unsupported predicate %v on column %q", pr.op, pr.col)
}

// bindPred compiles one predicate site at Bind. A literal predicate
// compiles to its test. A parameterized one is validated by compiling it
// with each placeholder at its type's zero value — so a bad literal beside
// a placeholder, or an ordered string comparison, fails here rather than
// at every stamping — and is recorded for WithArgs; until stamped it holds
// a never-matching test.
func (c *Compiled) bindPred(pr Pred, typ columnar.Type, dict *columnar.Dict, kind siteKind, idx, jidx int) (ftest, error) {
	names := predParams(pr)
	if len(names) == 0 {
		return compilePred(typ, dict, pr)
	}
	for _, n := range names {
		if n == "" {
			return ftest{}, fmt.Errorf("query: Param with empty name on column %q", pr.col)
		}
	}
	var zero any = int64(0)
	switch typ {
	case columnar.Float64:
		zero = 0.0
	case columnar.String:
		zero = ""
	}
	zpr := pr
	if _, ok := zpr.lo.(param); ok {
		zpr.lo = zero
	}
	if _, ok := zpr.hi.(param); ok {
		zpr.hi = zero
	}
	if _, err := compilePred(typ, dict, zpr); err != nil {
		return ftest{}, err
	}
	c.params = append(c.params, paramSite{kind: kind, idx: idx, jidx: jidx, pred: pr, typ: typ, dict: dict})
	return ftest{kind: fNever}, nil
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
	slices.Sort(names)
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
		t, err := compilePred(s.typ, s.dict, pr)
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

// makeIntTest canonicalizes a predicate over an int64 column into a raw
// word test.
func makeIntTest(pr Pred) (ftest, error) {
	lo, err := toInt64(pr.col, pr.lo)
	if err != nil {
		return ftest{}, err
	}
	t := ftest{kind: fIntRange, ilo: math.MinInt64, ihi: math.MaxInt64}
	switch pr.op {
	case opEq:
		t.ilo, t.ihi = lo, lo
	case opNe:
		return ftest{kind: fIntNe, ilo: lo}, nil
	case opGt:
		if lo == math.MaxInt64 {
			return ftest{kind: fNever}, nil
		}
		t.ilo = lo + 1
	case opGe:
		t.ilo = lo
	case opLt:
		if lo == math.MinInt64 {
			return ftest{kind: fNever}, nil
		}
		t.ihi = lo - 1
	case opLe:
		t.ihi = lo
	case opBetween:
		hi, err := toInt64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		t.ilo, t.ihi = lo, hi
	case opNotBetween:
		hi, err := toInt64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		return ftest{kind: fIntNotRange, ilo: lo, ihi: hi}, nil
	}
	return t, nil
}

// makeFloatTest canonicalizes a predicate in IEEE float space — float64
// columns, and the Having path where every emitted cell (group keys
// included) is already a decoded float64.
func makeFloatTest(pr Pred) (ftest, error) {
	lo, err := toFloat64(pr.col, pr.lo)
	if err != nil {
		return ftest{}, err
	}
	t := ftest{kind: fFloatRange, flo: math.Inf(-1), fhi: math.Inf(1)}
	switch pr.op {
	case opEq:
		t.flo, t.fhi = lo, lo
	case opNe:
		return ftest{kind: fFloatNe, flo: lo}, nil
	case opGt:
		t.flo = math.Nextafter(lo, math.Inf(1))
	case opGe:
		t.flo = lo
	case opLt:
		t.fhi = math.Nextafter(lo, math.Inf(-1))
	case opLe:
		t.fhi = lo
	case opBetween, opNotBetween:
		hi, err := toFloat64(pr.col, pr.hi)
		if err != nil {
			return ftest{}, err
		}
		if pr.op == opNotBetween {
			return ftest{kind: fFloatNotRange, flo: lo, fhi: hi}, nil
		}
		t.flo, t.fhi = lo, hi
	}
	return t, nil
}

// makeStringTest resolves a string literal through the column's
// dictionary: equality against a known code, never-match for unknown
// strings (inequality then matches everything).
func makeStringTest(dict *columnar.Dict, pr Pred) (ftest, error) {
	s, ok := pr.lo.(string)
	if !ok {
		return ftest{}, fmt.Errorf("query: string column %q compared with %v (%T): %w", pr.col, pr.lo, pr.lo, ErrPredType)
	}
	if pr.op != opEq && pr.op != opNe {
		return ftest{}, fmt.Errorf("query: string column %q supports only Eq/Ne, got %v", pr.col, pr.op)
	}
	code, known := dict.Lookup(s)
	if pr.op == opEq {
		if !known {
			return ftest{kind: fNever}, nil
		}
		return ftest{kind: fIntRange, ilo: code, ihi: code}, nil
	}
	if !known {
		return ftest{kind: fIntRange, ilo: math.MinInt64, ihi: math.MaxInt64}, nil
	}
	return ftest{kind: fIntNe, ilo: code}, nil
}

func toInt64(col string, v any) (int64, error) {
	switch x := v.(type) {
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int64:
		return x, nil
	case uint8:
		return int64(x), nil
	case uint16:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float64:
		if x != float64(int64(x)) {
			return 0, fmt.Errorf("query: non-integral value %v for int64 column %q: %w", x, col, ErrPredType)
		}
		return int64(x), nil
	default:
		return 0, fmt.Errorf("query: value %v (%T) unusable for int64 column %q: %w", v, v, col, ErrPredType)
	}
}

func toFloat64(col string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("query: value %v (%T) unusable for float64 column %q: %w", v, v, col, ErrPredType)
	}
}
