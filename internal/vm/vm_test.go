package vm

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPushReadAsOf(t *testing.T) {
	s := NewStore()
	s.Push(1, 10, []int64{100}, 0)
	s.Push(1, 20, []int64{200}, 0)
	s.Push(1, 30, []int64{300}, 0)

	cases := []struct {
		ts   uint64
		want int64
		ok   bool
	}{
		{5, 0, false},
		{10, 100, true},
		{15, 100, true},
		{20, 200, true},
		{29, 200, true},
		{30, 300, true},
		{1000, 300, true},
	}
	for _, c := range cases {
		img, ok := s.ReadAsOf(1, 0, c.ts)
		if ok != c.ok {
			t.Fatalf("ReadAsOf(%d) ok=%v want %v", c.ts, ok, c.ok)
		}
		if ok && img != c.want {
			t.Fatalf("ReadAsOf(%d) = %d want %d", c.ts, img, c.want)
		}
	}
}

func TestNewestToOldestOrder(t *testing.T) {
	s := NewStore()
	for ts := uint64(1); ts <= 5; ts++ {
		s.Push(7, ts, []int64{int64(ts)}, 0)
	}
	if s.ChainLen(7) != 5 {
		t.Fatalf("chain len = %d", s.ChainLen(7))
	}
	// The newest version must be found without full traversal semantics:
	// ReadAsOf(max) returns TS=5.
	img, _ := s.ReadAsOf(7, 0, 100)
	if img != 5 {
		t.Fatalf("newest = %d", img)
	}
}

func TestMissingRow(t *testing.T) {
	s := NewStore()
	if _, ok := s.ReadAsOf(9, 0, 100); ok {
		t.Fatal("missing row must not resolve")
	}
}

func TestGC(t *testing.T) {
	s := NewStore()
	for ts := uint64(10); ts <= 40; ts += 10 {
		s.Push(1, ts, []int64{int64(ts)}, 0)
	}
	// Oldest active reader at 35: versions 10 and 20 are unreachable
	// (30 is the newest visible at 35, and must stay).
	s.Push(1, 50, []int64{50}, 35)
	if n := s.ChainLen(1); n != 3 {
		t.Fatalf("chain = %d, want 3 (50, 40, 30)", n)
	}
	if img, ok := s.ReadAsOf(1, 0, 35); !ok || img != 30 {
		t.Fatalf("visible at 35 after trim: %v %v", img, ok)
	}
	if _, ok := s.ReadAsOf(1, 0, 15); ok {
		t.Fatal("reclaimed version still readable")
	}
}

func TestGCHeadOnly(t *testing.T) {
	s := NewStore()
	s.Push(1, 10, []int64{1}, 100)
	if img, ok := s.ReadAsOf(1, 0, 100); !ok || img != 1 {
		t.Fatal("head lost")
	}
	// A pushed version at or below the watermark is all its row keeps.
	s.Push(1, 20, []int64{2}, 100)
	if n := s.ChainLen(1); n != 1 {
		t.Fatalf("chain = %d, want 1", n)
	}
	if img, ok := s.ReadAsOf(1, 0, 100); !ok || img != 2 {
		t.Fatalf("head after trim: %v %v", img, ok)
	}
}

// TestTrimAgreesWithKeepEverything drives random pushes with random
// non-decreasing watermarks against a store that never trims: every read at
// or above the watermark must see the same version.
func TestTrimAgreesWithKeepEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows = 8
	s, oracle := NewStore(), NewStore()
	rowTS := make([]uint64, rows)
	var clock, watermark uint64
	for i := 0; i < 5000; i++ {
		row := rng.Int63n(rows)
		// One in four pushes repeats the row's timestamp, as the pre-image
		// of a transaction that then aborts does.
		if rng.Intn(4) != 0 {
			clock += uint64(1 + rng.Intn(3))
			rowTS[row] = clock
		}
		if rng.Intn(3) == 0 {
			watermark += uint64(rng.Int63n(int64(clock-watermark) + 1))
		}
		img := []int64{int64(i)}
		s.Push(row, rowTS[row], img, watermark)
		oracle.Push(row, rowTS[row], img, 0)
		for r := int64(0); r < rows; r++ {
			for _, at := range []uint64{watermark, watermark + uint64(rng.Intn(4)), clock, clock + 1} {
				got, gok := s.ReadAsOf(r, 0, at)
				want, wok := oracle.ReadAsOf(r, 0, at)
				if gok != wok || (gok && got != want) {
					t.Fatalf("push %d: ReadAsOf(row %d, %d) with watermark %d = %v,%v; untrimmed %v,%v",
						i, r, at, watermark, got, gok, want, wok)
				}
			}
		}
	}
	if s.Len() >= oracle.Len()/10 {
		t.Fatalf("trimmed store holds %d of %d versions", s.Len(), oracle.Len())
	}
}

func TestLen(t *testing.T) {
	s := NewStore()
	s.Push(1, 1, []int64{1}, 0)
	s.Push(1, 2, []int64{2}, 0)
	s.Push(200, 1, []int64{3}, 0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestQuickVisibilityMatchesReference(t *testing.T) {
	// Property: ReadAsOf returns exactly the newest version with TS <= ts.
	f := func(tss []uint8, probe uint8) bool {
		s := NewStore()
		var sorted []uint64
		seen := map[uint64]bool{}
		for _, x := range tss {
			ts := uint64(x) + 1
			if seen[ts] {
				continue
			}
			seen[ts] = true
			sorted = append(sorted, ts)
		}
		// Push in increasing TS order (commit order).
		for i := 0; i < len(sorted); i++ {
			min := i
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] < sorted[min] {
					min = j
				}
			}
			sorted[i], sorted[min] = sorted[min], sorted[i]
		}
		for _, ts := range sorted {
			s.Push(3, ts, []int64{int64(ts)}, 0)
		}
		var want uint64
		for _, ts := range sorted {
			if ts <= uint64(probe) {
				want = ts
			}
		}
		img, ok := s.ReadAsOf(3, 0, uint64(probe))
		if want == 0 {
			return !ok
		}
		return ok && img == int64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReadersNeverSeeARecycledImage: one writer pushes, trims and recycles a
// row's versions 100 000 times — with a watermark two commits behind, every
// push cuts a version and writes the new image into it — while a reader
// loops ReadAsOf on the same row. The image pushed for timestamp ts is
// ts*8+col in every cell, so a cell read from a buffer that was being
// rewritten, or from one recycled to another timestamp, cannot match.
func TestReadersNeverSeeARecycledImage(t *testing.T) {
	const (
		pushes = 100_000
		width  = 4
		row    = 5
	)
	s := NewStore()
	var pushed atomic.Uint64 // newest timestamp whose Push has returned
	done := make(chan struct{})
	go func() {
		defer close(done)
		img := make([]int64, width)
		for ts := uint64(1); ts <= pushes; ts++ {
			for c := range img {
				img[c] = int64(ts)*8 + int64(c)
			}
			var watermark uint64
			if ts > 2 {
				watermark = ts - 2
			}
			s.Push(row, ts, img, watermark)
			// A neighbour in the same shard takes and returns the spare.
			s.Push(row+shardCount, ts, img, ts)
			pushed.Store(ts)
		}
	}()
	for i := 0; ; i++ {
		col := i % width
		lo := pushed.Load()
		if lo == pushes {
			break
		}
		// The newest version: pushed no earlier than lo, no later than now.
		cell, ok := s.ReadAsOf(row, col, math.MaxUint64)
		hi := pushed.Load() + 1 // the push in flight may already be visible
		if lo > 0 && (!ok || cell%8 != int64(col) || uint64(cell/8) < lo || uint64(cell/8) > hi) {
			t.Fatalf("newest cell %d of col %d = %d,%v with pushes %d..%d", col, col, cell, ok, lo, hi)
		}
		// As of lo: version lo itself, unless the watermark has moved past
		// it and it was cut — never an older one, never another's buffer.
		if cell, ok := s.ReadAsOf(row, col, lo); ok && cell != int64(lo)*8+int64(col) {
			t.Fatalf("ReadAsOf(col %d, ts %d) = %d, want %d", col, lo, cell, int64(lo)*8+int64(col))
		}
	}
	<-done
	if n := s.ChainLen(row); n > 3 {
		t.Fatalf("chain = %d versions with a watermark two commits behind", n)
	}
}
