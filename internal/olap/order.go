package olap

import "slices"

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

// sortRows orders rows in place under o.
func (o Order) sortRows(rows [][]float64) {
	slices.SortFunc(rows, func(a, b []float64) int {
		switch {
		case o.before(a, b):
			return -1
		case o.before(b, a):
			return 1
		}
		return 0
	})
}

// SortRows orders rows under ord and keeps the first limit of them
// (limit <= 0 keeps everything). The ordering happens merge-side, after
// per-morsel partial aggregates combine: a top-k runs per merge part over
// complete sums, never earlier, because partial sums are not comparable
// before they are complete. For a genuine top-k (0 < limit < len(rows)) a
// TopK of limit rows scans the input once in O(n log k); a full order
// falls back to sort. Rows is reordered in place; the returned slice
// aliases it.
//
//htap:deterministic
func SortRows(rows [][]float64, ord Order, limit int) [][]float64 {
	if limit <= 0 || limit >= len(rows) {
		ord.sortRows(rows)
		return rows
	}
	// The heap is rows' own prefix, full after the first limit rows; the
	// scan then screens each row as Offer does, the comparison inlined.
	tk := NewTopK(ord, limit, rows)
	for _, r := range rows[:limit] {
		tk.keep(r)
	}
	h := tk.h
	for _, r := range rows[limit:] {
		if ord.before(r, h[0]) {
			tk.keep(r)
		}
	}
	return tk.Rows()
}

// TopK keeps the best k rows offered to it under an Order: a bounded heap
// with the lowest-ranked kept row at the root, so each candidate compares
// against the current cutoff in O(1) and displaces it in O(log k). Rows
// are kept by reference, never copied.
type TopK struct {
	ord Order
	k   int
	h   [][]float64
}

// NewTopK returns an empty TopK that keeps the best k rows (k >= 1) under
// ord. It holds them in buf's backing array while that has room.
func NewTopK(ord Order, k int, buf [][]float64) TopK {
	return TopK{ord: ord, k: k, h: buf[:0]}
}

// Offer considers row. While fewer than k rows are held it keeps row and
// returns nil. After that it keeps row only when row ranks ahead of the
// worst kept one, and returns the row it did not keep (the displaced one,
// or row itself), whose storage the caller may reuse.
func (t *TopK) Offer(row []float64) []float64 {
	if len(t.h) < t.k || t.ord.before(row, t.h[0]) {
		return t.keep(row)
	}
	return row
}

// keep takes row into the heap, displacing the worst kept row once k
// are held, and returns the displaced row (nil while filling).
func (t *TopK) keep(row []float64) []float64 {
	if len(t.h) < t.k {
		t.h = append(t.h, row)
		if len(t.h) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				t.siftDown(i)
			}
		}
		return nil
	}
	out := t.h[0]
	t.h[0] = row
	t.siftDown(0)
	return out
}

// Rows returns the kept rows, best first. It orders them in place, so
// the TopK takes no further offers.
func (t *TopK) Rows() [][]float64 {
	t.ord.sortRows(t.h)
	return t.h
}

// siftDown restores the heap property at index i: a parent must not rank
// ahead of either child (the root is the worst kept row).
func (t *TopK) siftDown(i int) {
	h, ord := t.h, t.ord
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
