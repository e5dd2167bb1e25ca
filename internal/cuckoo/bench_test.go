package cuckoo

import (
	"math/rand"
	"sync"
	"testing"
)

// The cuckoo table is the OLTP primary index (§3.2); these benchmarks
// compare it against the obvious stdlib-map baseline.

const benchKeys = 1 << 18

func benchTable(b *testing.B) (*Table, []uint64) {
	b.Helper()
	t := New(benchKeys)
	keys := make([]uint64, benchKeys)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Uint64()
		t.Put(keys[i], uint64(i))
	}
	return t, keys
}

func BenchmarkCuckooGet(b *testing.B) {
	t, keys := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Get(keys[i&(benchKeys-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMapGetBaseline(b *testing.B) {
	m := make(map[uint64]uint64, benchKeys)
	keys := make([]uint64, benchKeys)
	rng := rand.New(rand.NewSource(1))
	var mu sync.RWMutex
	for i := range keys {
		keys[i] = rng.Uint64()
		m[keys[i]] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.RLock()
		_, ok := m[keys[i&(benchKeys-1)]]
		mu.RUnlock()
		if !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCuckooPut(b *testing.B) {
	t := New(b.N)
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, b.N)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Put(keys[i], uint64(i))
	}
}

func BenchmarkMapPutBaseline(b *testing.B) {
	m := make(map[uint64]uint64, b.N)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, b.N)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		m[keys[i]] = uint64(i)
		mu.Unlock()
	}
}

func BenchmarkCuckooParallelGet(b *testing.B) {
	t, keys := benchTable(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			t.Get(keys[i&(benchKeys-1)])
			i++
		}
	})
}
