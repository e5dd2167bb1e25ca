package columnar

import (
	"slices"
	"sync"
	"sync/atomic"
)

// chunkShift is log2(ChunkSize).
const chunkShift = 14

// ChunkSize is the number of rows per storage chunk. Chunked growth keeps
// already-handed-out slices stable while the table appends, so analytical
// scans can run concurrently with transactional inserts.
const ChunkSize = 1 << chunkShift

// chunkBytes is the memory of one chunk.
const chunkBytes = ChunkSize * 8

// Words is a growable chunked array of raw 8-byte values.
//
// The chunk directory is an immutable slice published through an atomic
// pointer. Publishing a directory is the only operation that takes a lock,
// and only publishers take it: under growMu a grower (ensure) copies the
// directory, appends chunks and stores the new pointer. A published
// directory is therefore never written again and always lists allocated
// chunks, and chunks never move — so a reader may load the directory,
// index it and touch a cell without synchronizing with anyone, and a chunk
// slice handed out by Scan or Slice stays valid however far the array
// grows afterwards.
//
// Two Words may list the same chunk: a table's twin instances do, for every
// chunk no transaction has updated in place (ensureShared, sharesChunk).
// Nothing but an append above the published row count writes such a chunk;
// the first in-place write gives its side a copy first (privatize), and the
// old chunk stays with the twin, untouched, under whatever slices of it
// readers still hold.
//
// What a reader may assume is what its caller established: storage for a
// row exists once an ensure covering it has returned (the table ensures
// every column before it publishes a row count), single cells are read and
// written with atomic loads and stores, and whole runs are read without
// atomics only where no writer touches them concurrently (rows of an
// inactive instance, or rows not yet published).
type Words struct {
	dir    atomic.Pointer[[][]int64]
	growMu sync.Mutex // serializes growers; readers never take it
}

func newWords(capHint int64) *Words {
	w := &Words{}
	w.dir.Store(new([][]int64))
	w.ensure(capHint)
	return w
}

// ensure guarantees storage for rows [0, n).
func (w *Words) ensure(n int64) { w.ensureShared(nil, n) }

// ensureShared is ensure for the second of two twins: the chunks w lacks
// are not allocated but taken from twin, which already covers rows [0, n),
// so both list the same memory from there on.
func (w *Words) ensureShared(twin *Words, n int64) {
	need := int((n + ChunkSize - 1) >> chunkShift)
	if len(*w.dir.Load()) < need {
		w.grow(need, twin)
	}
}

// grow publishes a directory of at least need chunks, the new ones freshly
// allocated or, given a twin, the twin's.
//
//htap:coldpath
func (w *Words) grow(need int, twin *Words) {
	w.growMu.Lock()
	defer w.growMu.Unlock()
	old := *w.dir.Load()
	if len(old) >= need {
		return
	}
	dir := make([][]int64, need)
	copy(dir, old)
	if twin != nil {
		copy(dir[len(old):], (*twin.dir.Load())[len(old):need])
	} else {
		for i := len(old); i < need; i++ {
			dir[i] = make([]int64, ChunkSize)
		}
	}
	w.dir.Store(&dir)
}

// sharesChunk reports whether w and twin list the same memory for row i's
// chunk. Once false it stays false: chunks are only ever split, by
// privatize.
//
//htap:hotpath
func (w *Words) sharesChunk(twin *Words, i int64) bool {
	return &(*w.dir.Load())[i>>chunkShift][0] == &(*twin.dir.Load())[i>>chunkShift][0]
}

// privatize gives w a copy of row i's chunk in place of the one it shares
// with twin, and publishes the directory that lists it; if the chunk is
// already w's own (another writer came first) nothing happens. The caller
// keeps appenders out of the chunk for the duration, and nothing else
// writes a shared chunk, so the copy is of memory at rest.
//
//htap:coldpath
func (w *Words) privatize(twin *Words, i int64) {
	w.growMu.Lock()
	defer w.growMu.Unlock()
	if !w.sharesChunk(twin, i) {
		return
	}
	dir := slices.Clone(*w.dir.Load())
	own := make([]int64, ChunkSize)
	copy(own, dir[i>>chunkShift])
	dir[i>>chunkShift] = own
	w.dir.Store(&dir)
}

// Store atomically writes the value at row i (storage must exist).
//
//htap:hotpath
func (w *Words) Store(i int64, v int64) {
	atomic.StoreInt64(&(*w.dir.Load())[i>>chunkShift][i&(ChunkSize-1)], v)
}

// Load atomically reads the value at row i.
//
//htap:hotpath
func (w *Words) Load(i int64) int64 {
	return atomic.LoadInt64(&(*w.dir.Load())[i>>chunkShift][i&(ChunkSize-1)])
}

// run returns the raw storage for rows [lo, hi) cut at lo's chunk
// boundary: the longest prefix of the range that is contiguous in memory.
func (w *Words) run(lo, hi int64) []int64 {
	off := lo & (ChunkSize - 1)
	end := off + (hi - lo)
	if end > ChunkSize {
		end = ChunkSize
	}
	return (*w.dir.Load())[lo>>chunkShift][off:end]
}

// Scan iterates rows [lo, hi) in chunk-sized runs, invoking fn with the raw
// slice for each run and the absolute row number of its first element.
// The values are read without atomics: callers must only scan ranges that
// no writer mutates concurrently (e.g. an inactive instance snapshot).
func (w *Words) Scan(lo, hi int64, fn func(vals []int64, base int64)) {
	for i := lo; i < hi; {
		vals := w.run(i, hi)
		fn(vals, i)
		i += int64(len(vals))
	}
}

// Slice returns the raw storage for rows [lo, hi), which must lie within a
// single chunk (hi-lo <= ChunkSize and no chunk boundary crossed). Like
// Scan, callers must not read ranges a writer mutates concurrently.
func (w *Words) Slice(lo, hi int64) []int64 {
	if hi > lo && lo>>chunkShift != (hi-1)>>chunkShift {
		panic("columnar: Slice range crosses a chunk boundary")
	}
	return w.run(lo, hi)
}

// CopyRange copies rows [lo, hi) from src into w at the same positions.
// Source cells are read atomically: the bulk ETL copy may run after a
// later exchange cycle re-activated the source instance (a batch reusing
// its snapshot set), where transactions update cells in place. Row-level
// consistency of concurrently updated rows is the caller's concern — the
// update-indication bits keep such rows fresh for the next ETL.
func (w *Words) CopyRange(src *Words, lo, hi int64) {
	w.ensure(hi)
	for i := lo; i < hi; {
		vals, dst := src.run(i, hi), w.run(i, hi)
		for j := range vals {
			dst[j] = atomic.LoadInt64(&vals[j])
		}
		i += int64(len(vals))
	}
}
