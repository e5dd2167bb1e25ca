package txn

import "testing"

// TestReleaseUnheldPanics: releasing a lock no one holds panics with the
// documented message, whether the row's block of lock words was never
// allocated (an empty table, or a row past every locked block) or the
// row's word is free in an allocated block.
func TestReleaseUnheldPanics(t *testing.T) {
	var held Locks
	if err := held.Acquire(1, 5); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		l    *Locks
		row  int64
	}{
		{"empty table", new(Locks), 3},
		{"block never allocated", &held, 5 << lockBlockShift},
		{"free word", &held, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "txn: release of unheld lock" {
					t.Fatalf("Release of unheld row %d panicked with %v, want the unheld-lock panic", c.row, r)
				}
			}()
			c.l.Release(c.row)
		})
	}
	held.Release(1)
	if h := held.word(1).Load(); h != 0 {
		t.Fatalf("held lock word after release = %#x, want 0", h)
	}
}
