package oltp

import (
	"errors"
	"testing"
)

// denseRows returns the key components of a table that holds the domain
// d in key order.
func denseRows(d [3]Dim) [][3]int64 {
	var rows [][3]int64
	for a := d[0].Lo; a < d[0].Lo+d[0].Span; a++ {
		for b := d[1].Lo; b < d[1].Lo+d[1].Span; b++ {
			for c := d[2].Lo; c < d[2].Lo+d[2].Span; c++ {
				rows = append(rows, [3]int64{a, b, c})
			}
		}
	}
	return rows
}

func build(d [3]Dim, rows [][3]int64) (*KeyIndex, error) {
	return NewKeyIndex(d, int64(len(rows)), func(r int64) [3]int64 { return rows[r] })
}

// TestDenseIndexResolvesItsDomain: every key of the domain resolves to
// the row its arithmetic names, and each component just below its lower
// bound or at its lower bound plus its span misses, as do the extremes of
// its field.
func TestDenseIndexResolvesItsDomain(t *testing.T) {
	for _, d := range [][3]Dim{
		{{Lo: 3, Span: 4}, {Lo: 2, Span: 5}, {Lo: 7, Span: 6}},
		{{Lo: 1, Span: 14}, {Lo: 1, Span: 10}, {Lo: 1, Span: 30}}, // CH customer
		{{Lo: 1, Span: 2}, {Lo: 0, Span: 1}, {Lo: 1, Span: 50}},   // CH stock
		{{Lo: 0, Span: 1}, {Lo: 0, Span: 1}, {Lo: 0, Span: 25}},   // CH nation
		{{Lo: 1<<16 - 3, Span: 3}, {Lo: 1<<8 - 2, Span: 2}, {Lo: 1<<40 - 4, Span: 4}},
	} {
		rows := denseRows(d)
		x, err := build(d, rows)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if x.Len() != len(rows) {
			t.Fatalf("%v: Len %d, want %d", d, x.Len(), len(rows))
		}
		for r, k := range rows {
			if got, ok := x.Get(Key(k[0], k[1], k[2])); !ok || got != uint64(r) {
				t.Fatalf("%v: key %v resolves to %d, %v; want row %d", d, k, got, ok, r)
			}
		}
		for _, k := range [][3]int64{rows[0], rows[len(rows)-1]} {
			for j, w := range [3]int64{1 << 16, 1 << 8, 1 << 40} {
				for _, v := range []int64{d[j].Lo - 1, d[j].Lo + d[j].Span, 0, w - 1} {
					if v < 0 || v >= d[j].Lo && v < d[j].Lo+d[j].Span {
						continue
					}
					out := k
					out[j] = v
					if got, ok := x.Get(Key(out[0], out[1], out[2])); ok {
						t.Fatalf("%v: key %v outside the domain resolves to row %d", d, out, got)
					}
				}
			}
		}
		if x.Put(Key(rows[0][0], rows[0][1], rows[0][2]), 9) {
			t.Fatalf("%v: an arithmetic index took a Put", d)
		}
	}
}

// TestAppendIndexPut: a group's ids append from its base; a repeated id
// overwrites its row, an id past the next one is refused, as is a key
// outside the group domain.
func TestAppendIndexPut(t *testing.T) {
	x, err := build([3]Dim{{Lo: 1, Span: 2}, {Lo: 1, Span: 3}, {Lo: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[3]int64]uint64{}
	row := uint64(0)
	for id := int64(1); id <= 700; id++ { // several chunks
		for _, g := range [][2]int64{{1, 1}, {2, 3}, {1, 3}} {
			if g[0] == 1 && g[1] == 3 && id > 5 {
				continue
			}
			if !x.Put(Key(g[0], g[1], id), row) {
				t.Fatalf("Put of id %d in group %v refused", id, g)
			}
			want[[3]int64{g[0], g[1], id}] = row
			row++
		}
	}
	if !x.Put(Key(2, 3, 7), 12345) {
		t.Fatal("repeated id refused")
	}
	want[[3]int64{2, 3, 7}] = 12345
	for _, k := range [][3]int64{{1, 3, 7}, {2, 2, 2}, {1, 1, 702}, {1, 1, 0}, {0, 1, 1}, {3, 1, 1}, {1, 4, 1}, {1, 0, 1}} {
		if x.Put(Key(k[0], k[1], k[2]), 1) {
			t.Fatalf("Put of key %v taken", k)
		}
	}
	if x.Len() != len(want) {
		t.Fatalf("Len %d, want %d", x.Len(), len(want))
	}
	for k, r := range want {
		if got, ok := x.Get(Key(k[0], k[1], k[2])); !ok || got != r {
			t.Fatalf("key %v resolves to %d, %v; want %d", k, got, ok, r)
		}
	}
	for _, k := range [][3]int64{{1, 3, 6}, {2, 2, 1}, {1, 1, 701}, {1, 1, 0}, {0, 1, 1}, {3, 1, 1}, {1, 4, 1}, {1, 1, 1<<40 - 1}} {
		if got, ok := x.Get(Key(k[0], k[1], k[2])); ok {
			t.Fatalf("absent key %v resolves to %d", k, got)
		}
	}
}

// TestNewKeyIndexRefusesMisplacedRows: a row out of its arithmetic
// place, a row count that is not the domain's, a component outside its
// domain, and an appended id that leaves a gap or repeats one are
// ErrMisplacedRow.
func TestNewKeyIndexRefusesMisplacedRows(t *testing.T) {
	dense := [3]Dim{{Lo: 1, Span: 2}, {Lo: 1, Span: 3}, {Lo: 1, Span: 4}}
	appended := [3]Dim{dense[0], dense[1], {Lo: 1}}
	swapped := denseRows(dense)
	swapped[5], swapped[6] = swapped[6], swapped[5]
	outside := denseRows(dense)
	outside[3][1] = 4
	orders := [][3]int64{{1, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 3, 1}}
	with := func(k [3]int64) [][3]int64 { return append(append([][3]int64{}, orders...), k) }
	if _, err := build(appended, orders); err != nil {
		t.Fatalf("orders in place: %v", err)
	}
	for _, c := range []struct {
		name string
		d    [3]Dim
		rows [][3]int64
	}{
		{"swapped", dense, swapped},
		{"short", dense, denseRows(dense)[1:]},
		{"outside", dense, outside},
		{"gap", appended, with([3]int64{1, 2, 3})},
		{"repeat", appended, with([3]int64{1, 1, 2})},
		{"below base", appended, with([3]int64{1, 3, 0})},
		{"past the id field", appended, with([3]int64{1, 3, 1<<40 + 1})},
	} {
		if x, err := build(c.d, c.rows); !errors.Is(err, ErrMisplacedRow) || x != nil {
			t.Errorf("%s: NewKeyIndex = %v, %v; want ErrMisplacedRow", c.name, x, err)
		}
	}
}
