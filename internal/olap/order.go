package olap

import "sort"

// Order is a deterministic total order over result rows: the order column
// compares first (descending when Desc), and ties break on the remaining
// columns ascending, left to right. Whenever rows are distinct — grouped
// results always are, their group keys differ — the order is total, so a
// sort under it is reproducible bit for bit regardless of the input
// permutation. That is what lets ordered and top-k queries stay
// deterministic under work stealing and mid-query pool resizes: the merge
// feeds rows in morsel order, and this order fixes the output.
type Order struct {
	Col  int
	Desc bool
}

// before reports whether row a ranks ahead of row b.
func (o Order) before(a, b []float64) bool {
	av, bv := a[o.Col], b[o.Col]
	if av != bv {
		if o.Desc {
			return av > bv
		}
		return av < bv
	}
	for i := range a {
		if i == o.Col {
			continue
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// SortRows orders rows under ord and keeps the first limit of them
// (limit <= 0 keeps everything). The ordering happens merge-side, after
// per-morsel partial aggregates combine — a top-k cannot run earlier,
// because partial sums are not comparable before they are complete. For a
// genuine top-k (0 < limit < len(rows)) a bounded heap of limit rows
// scans the input once in O(n log k); a full order falls back to sort.
// Rows is reordered in place; the returned slice aliases it.
//
//htap:deterministic
func SortRows(rows [][]float64, ord Order, limit int) [][]float64 {
	if limit <= 0 || limit >= len(rows) {
		sort.Slice(rows, func(i, j int) bool { return ord.before(rows[i], rows[j]) })
		return rows
	}
	// Bounded heap over the row prefix: h = rows[:k] arranged with the
	// lowest-ranked kept row at the root, so each candidate compares
	// against the current cutoff in O(1) and displaces it in O(log k).
	h := rows[:limit]
	for i := limit/2 - 1; i >= 0; i-- {
		siftDown(h, i, ord)
	}
	for _, r := range rows[limit:] {
		if ord.before(r, h[0]) {
			h[0] = r
			siftDown(h, 0, ord)
		}
	}
	sort.Slice(h, func(i, j int) bool { return ord.before(h[i], h[j]) })
	return h
}

// siftDown restores the heap property at index i: a parent must not rank
// ahead of either child (the root is the worst kept row).
func siftDown(h [][]float64, i int, ord Order) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && ord.before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && ord.before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
