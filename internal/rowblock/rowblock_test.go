package rowblock

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// filled returns a chunk of n copies of v.
func filled(n, v int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = v
	}
	return c
}

// TestGrowUnderReaders: growers extend the directory a slot at a time,
// each new chunk filled with its slot number, while readers index every
// slot below the length of the directory they loaded. Every slot a reader
// sees is set and holds its own number; under -race a directory written
// after it was published is a reported race.
func TestGrowUnderReaders(t *testing.T) {
	const slots, growers, readers = 256, 2, 2
	var b Blocks[int]
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < growers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= slots; n++ {
				b.Publish(n-1, n, func(i int, c []int) []int {
					if c == nil {
						c = filled(4, i)
					}
					return c
				})
			}
		}()
	}
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				dir := b.Dir()
				for i, c := range dir {
					if c == nil || c[0] != i || c[len(c)-1] != i {
						errs <- "a slot below the published length is unset or holds another slot's chunk"
						return
					}
				}
				if len(dir) == slots {
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := len(b.Dir()); got != slots {
		t.Fatalf("directory has %d slots after growth, want %d", got, slots)
	}
}

// TestReplaceKeepsHeldChunk: a replacer swaps slot 1's chunk for fresh
// ones again and again while a reader goes on reading the directory and
// the chunk it loaded before the first swap. Neither changes under it.
func TestReplaceKeepsHeldChunk(t *testing.T) {
	var b Blocks[int]
	b.Publish(0, 3, func(i int, _ []int) []int { return filled(8, i) })
	held := b.Dir()
	chunk := held[1]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 10; v < 500; v++ {
			b.Publish(1, 2, func(int, []int) []int { return filled(8, v) })
		}
	}()
	for k := 0; k < 2000; k++ {
		if &held[1][0] != &chunk[0] {
			t.Error("a held directory's slot changed: a publisher wrote into a published directory")
			break
		}
		if v := slices.Max(chunk); v != 1 || slices.Min(chunk) != 1 {
			t.Errorf("the held chunk reads %d, want 1: a replaced chunk was rewritten", v)
			break
		}
	}
	wg.Wait()
	if &held[1][0] != &chunk[0] || chunk[0] != 1 {
		t.Fatal("the held directory or chunk changed after the replacements")
	}
	if got := b.Dir()[1][0]; got != 499 {
		t.Fatalf("slot 1 holds %d after the replacements, want the last one (499)", got)
	}
	if &b.Dir()[0][0] != &held[0][0] || &b.Dir()[2][0] != &held[2][0] {
		t.Fatal("replacing slot 1 moved another slot's chunk")
	}
}

// TestPublishNothingKeepsDir: a publish whose callback returns every old
// chunk, or leaves every slot past the end empty, publishes nothing: the
// directory pointer stays the one loaded before.
func TestPublishNothingKeepsDir(t *testing.T) {
	var b Blocks[int]
	keep := func(_ int, c []int) []int { return c }
	if dir := b.Publish(0, 4, keep); dir != nil || b.dir.Load() != nil {
		t.Fatal("a publish of nothing into an empty directory published one")
	}
	b.Publish(0, 2, func(i int, _ []int) []int { return filled(2, i) })
	p := b.dir.Load()
	for _, r := range [][2]int{{0, 2}, {1, 2}, {0, 6}, {3, 3}, {5, 2}} {
		if dir := b.Publish(r[0], r[1], keep); len(dir) != 2 || b.dir.Load() != p {
			t.Fatalf("Publish(%d, %d) of unchanged slots published a new directory", r[0], r[1])
		}
	}
	b.Publish(0, 2, func(_ int, c []int) []int { return c[:len(c):len(c)] })
	if b.dir.Load() != p {
		t.Fatal("returning the old chunks resliced published a new directory")
	}
}

// TestEmptySlotStaysNil: slots a publish passes over stay nil, and the
// callback is handed nil for them, until a publish sets them.
func TestEmptySlotStaysNil(t *testing.T) {
	var b Blocks[int]
	if b.Dir() != nil {
		t.Fatal("the zero Blocks has a directory")
	}
	b.Publish(5, 6, func(i int, c []int) []int {
		if c != nil {
			t.Fatalf("slot %d of an empty directory handed to the callback as %v, want nil", i, c)
		}
		return filled(1, i)
	})
	check := func(set ...int) {
		t.Helper()
		dir := b.Dir()
		if len(dir) != 6 {
			t.Fatalf("directory has %d slots, want 6", len(dir))
		}
		for i, c := range dir {
			want := false
			for _, s := range set {
				want = want || s == i
			}
			if (c != nil) != want {
				t.Fatalf("slot %d set = %v, want %v", i, c != nil, want)
			}
		}
	}
	check(5)
	var seen []int
	b.Publish(0, 6, func(i int, c []int) []int {
		if c == nil {
			seen = append(seen, i)
		}
		if i == 2 {
			return filled(1, i)
		}
		return c
	})
	if len(seen) != 5 {
		t.Fatalf("the callback saw empty slots %v, want 0-4", seen)
	}
	check(2, 5)
}
