package cuckoo

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	tab := New(0)
	tab.Put(1, 100)
	tab.Put(2, 200)
	if v, ok := tab.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	if v, ok := tab.Get(2); !ok || v != 200 {
		t.Fatalf("Get(2) = %d,%v", v, ok)
	}
	if _, ok := tab.Get(3); ok {
		t.Fatal("Get(3) should miss")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tab := New(0)
	tab.Put(7, 1)
	tab.Put(7, 2)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	if v, _ := tab.Get(7); v != 2 {
		t.Fatalf("Get(7) = %d, want 2", v)
	}
}

func TestGrowthManyKeys(t *testing.T) {
	const n = 200_000
	tab := New(16)
	for i := uint64(0); i < n; i++ {
		tab.Put(i, i*3)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := tab.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if lf := tab.LoadFactor(); lf > 0.95 || lf <= 0 {
		t.Fatalf("load factor %v out of bounds", lf)
	}
}

func TestAdversarialKeys(t *testing.T) {
	// Keys with identical low bits stress bucket collisions.
	tab := New(8)
	for i := uint64(0); i < 5000; i++ {
		tab.Put(i<<32, i)
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := tab.Get(i << 32); !ok || v != i {
			t.Fatalf("Get(%d<<32) = %d,%v", i, v, ok)
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	tab := New(0)
	for i := uint64(0); i < 10000; i++ {
		tab.Put(i, i)
	}
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 10000; i++ {
				k := uint64(rng.Intn(10000))
				if v, ok := tab.Get(k); !ok || v != k {
					t.Errorf("Get(%d) = %d,%v", k, v, ok)
					break
				}
			}
			done <- true
		}()
	}
	go func() {
		for i := uint64(10000); i < 12000; i++ {
			tab.Put(i, i)
		}
		done <- true
	}()
	for i := 0; i < 5; i++ {
		<-done
	}
}

func TestQuickMapEquivalence(t *testing.T) {
	f := func(keys []uint64, vals []uint64) bool {
		tab := New(0)
		ref := map[uint64]uint64{}
		for i, k := range keys {
			v := uint64(i)
			if i < len(vals) {
				v = vals[i]
			}
			tab.Put(k, v)
			ref[k] = v
		}
		if tab.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tab.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
