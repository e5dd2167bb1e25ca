package bitset

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// isSet reports whether bit i of b is set; out of range, it is not.
func isSet(b *Atomic, i int) bool {
	if i < 0 || int64(i) >= b.n.Load() {
		return false
	}
	return atomic.LoadUint64(b.word(i/wordBits))&(uint64(1)<<(i%wordBits)) != 0
}

func TestSetTestClear(t *testing.T) {
	b := New(100)
	if isSet(b, 5) {
		t.Fatal("fresh bitset has bit set")
	}
	if !b.Set(5) {
		t.Fatal("Set should report 0->1 transition")
	}
	if b.Set(5) {
		t.Fatal("second Set should report no transition")
	}
	if !isSet(b, 5) {
		t.Fatal("bit 5 should be set")
	}
	if !b.Clear(5) {
		t.Fatal("Clear should report 1->0 transition")
	}
	if b.Clear(5) {
		t.Fatal("second Clear should report no transition")
	}
	if isSet(b, 5) {
		t.Fatal("bit 5 should be clear")
	}
}

func TestGrowOnSet(t *testing.T) {
	b := New(0)
	if !b.Set(1_000_000) {
		t.Fatal("Set beyond capacity must grow and set")
	}
	if !isSet(b, 1_000_000) {
		t.Fatal("grown bit lost")
	}
	if b.Len() < 1_000_001 {
		t.Fatalf("Len %d < 1000001", b.Len())
	}
	if got := b.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestNegativeAndOutOfRange(t *testing.T) {
	b := New(10)
	if b.Set(-1) {
		t.Fatal("Set(-1) must be a no-op")
	}
	if isSet(b, -1) || isSet(b, 10) || isSet(b, 11) {
		t.Fatal("an out-of-range bit must read clear")
	}
	if b.Clear(42) {
		t.Fatal("out-of-range Clear must be false")
	}
}

func TestForEachSetOrder(t *testing.T) {
	b := New(300)
	want := []int{0, 1, 63, 64, 65, 128, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEachSet(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestDrainSet(t *testing.T) {
	b := New(200)
	for i := 0; i < 200; i += 3 {
		b.Set(i)
	}
	before := b.Count()
	var drained []int
	n := b.DrainSet(func(i int) { drained = append(drained, i) })
	if n != before || len(drained) != before {
		t.Fatalf("drained %d, want %d", n, before)
	}
	if b.Count() != 0 {
		t.Fatalf("Count after drain = %d, want 0", b.Count())
	}
	// Draining an empty set is a no-op.
	if got := b.DrainSet(func(int) {}); got != 0 {
		t.Fatalf("second drain = %d, want 0", got)
	}
}

func TestConcurrentSetters(t *testing.T) {
	const n = 10000
	b := New(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 8 {
				b.Set(i)
			}
		}(g)
	}
	wg.Wait()
	if got := b.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
}

func TestConcurrentDrainAndSet(t *testing.T) {
	// Bits set during a drain must end up either drained or still set —
	// never lost. This is the RDE sync-loop contract.
	const n = 1 << 14
	b := New(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	seen := make([]bool, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += 2 {
			b.Set(i) // re-set even bits concurrently
		}
	}()
	b.DrainSet(func(i int) { seen[i] = true })
	wg.Wait()
	for i := 1; i < n; i += 2 {
		if !seen[i] {
			t.Fatalf("odd bit %d lost", i)
		}
	}
	for i := 0; i < n; i += 2 {
		if !seen[i] && !isSet(b, i) {
			t.Fatalf("even bit %d neither drained nor set", i)
		}
	}
}

func TestQuickCountMatchesReference(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := New(1 << 16)
		ref := map[int]bool{}
		for _, u := range idxs {
			b.Set(int(u))
			ref[int(u)] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		for i := range ref {
			if !isSet(b, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetClearIdempotence(t *testing.T) {
	f := func(ops []int16) bool {
		b := New(1 << 15)
		ref := map[int]bool{}
		for _, op := range ops {
			i := int(op)
			if i < 0 {
				i = -i
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		return b.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCountBelowMatchesBitOracle holds the prefix popcount to a bit-by-bit
// recount for random contents, lengths and limits — limits on, just under
// and just over word and chunk boundaries, and past the length — while
// other goroutines set and clear bits at or above the limit: those must
// never reach the result.
func TestCountBelowMatchesBitOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := []int{0, 1, wordBits - 1, wordBits, wordBits + 1, chunkBits - 1, chunkBits, chunkBits + 1, 2 * chunkBits}
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(2*chunkBits+200)
		if round%4 == 0 {
			n = edges[1+rng.Intn(len(edges)-1)]
		}
		b := New(n)
		ref := make([]bool, n)
		for k := rng.Intn(n + 1); k > 0; k-- {
			i := rng.Intn(n)
			if rng.Intn(4) == 0 {
				b.Clear(i)
				ref[i] = false
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		below := make([]int, n+1) // below[i]: set bits in [0, i), counted one at a time
		for i, set := range ref {
			below[i+1] = below[i]
			if set {
				below[i+1]++
			}
		}
		limits := append([]int{-3, n - 1, n, n + 1, n + chunkBits, rng.Intn(n + 1)}, edges...)
		for _, limit := range limits {
			want := below[min(max(limit, 0), n)]
			// Churn above the limit, including growth past the length.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func(lo int, seed int64) {
				defer wg.Done()
				if lo < 0 {
					lo = 0
				}
				r := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Only bits the oracle has clear, so each pair leaves
					// the bitmap as it found it.
					if i := lo + r.Intn(n+chunkBits); i >= n || !ref[i] {
						b.Set(i)
						b.Clear(i)
					}
				}
			}(limit, int64(round))
			for rep := 0; rep < 3; rep++ {
				if got := b.CountBelow(limit); got != want {
					close(stop)
					wg.Wait()
					t.Fatalf("round %d: CountBelow(%d) of %d bits = %d, oracle %d", round, limit, n, got, want)
				}
			}
			close(stop)
			wg.Wait()
		}
		if got, want := b.Count(), b.CountBelow(b.Len()); got != want {
			t.Fatalf("Count %d != CountBelow(Len) %d", got, want)
		}
	}
}
