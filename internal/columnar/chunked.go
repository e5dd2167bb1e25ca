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
// Up to three Words may list the same chunk: a table's twin instances and
// its OLAP replica. The twins list every chunk no transaction has updated
// in place (ensureShared); the replica lists a snapshot's chunk that both
// twins still listed when it absorbed rows of it (ensureListing). No cell
// below any lister's watermark is ever written in a chunk another
// directory lists: every in-place writer first gives its own directory a
// copy (privatize), and the old chunk stays with the other listers,
// untouched, under whatever slices of it readers still hold. The one store
// into a chunk several directories list is an append, which fills the tail
// chunk above the published row count — above every lister's watermark,
// where nothing reads.
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

// chunks is the number of chunks that hold rows [0, n).
func chunks(n int64) int { return int((n + ChunkSize - 1) >> chunkShift) }

// ensure guarantees storage for rows [0, n).
func (w *Words) ensure(n int64) {
	if len(*w.dir.Load()) < chunks(n) {
		w.grow(chunks(n), nil)
	}
}

// ensureShared is ensure for the second of two twins: the chunks w lacks
// are not allocated but taken from twin, which already covers rows [0, n),
// so both list the same memory from there on.
func (w *Words) ensureShared(twin *Words, n int64) {
	if len(*w.dir.Load()) < chunks(n) {
		w.grow(chunks(n), func(i int) []int64 { return (*twin.dir.Load())[i] })
	}
}

// ensureListing is ensure for a replica that absorbs rows [0, n) of src,
// one of two twins: a chunk w lacks that src and twin both still list is
// listed by w as well, and the others are allocated. Appends go on filling
// a listed tail chunk above the row count, which is above w's watermark.
func (w *Words) ensureListing(src, twin *Words, n int64) {
	if len(*w.dir.Load()) >= chunks(n) {
		return
	}
	a, b := *src.dir.Load(), *twin.dir.Load()
	w.grow(chunks(n), func(i int) []int64 {
		if &a[i][0] == &b[i][0] {
			return a[i]
		}
		return nil
	})
}

// grow publishes a directory of at least need chunks. A new chunk is the
// one list names for it or, where list is nil or names none, freshly
// allocated.
//
//htap:coldpath
func (w *Words) grow(need int, list func(i int) []int64) {
	w.growMu.Lock()
	defer w.growMu.Unlock()
	old := *w.dir.Load()
	if len(old) >= need {
		return
	}
	dir := make([][]int64, need)
	copy(dir, old)
	for i := len(old); i < need; i++ {
		if list != nil {
			dir[i] = list(i)
		}
		if dir[i] == nil {
			dir[i] = make([]int64, ChunkSize)
		}
	}
	w.dir.Store(&dir)
}

// sharesChunk reports whether w and o list the same memory for row i's
// chunk — false where o has no chunk there yet, as a replica's directory
// ends at its watermark. Once false for a chunk both list, it stays false:
// a listed chunk is only ever dropped, by privatize.
//
//htap:hotpath
func (w *Words) sharesChunk(o *Words, i int64) bool {
	od, j := *o.dir.Load(), i>>chunkShift
	return j < int64(len(od)) && &(*w.dir.Load())[j][0] == &od[j][0]
}

// privatize gives w a copy of row i's chunk in place of the one it shares
// with a or b (b may be nil), and publishes the directory that lists it;
// if neither lists w's chunk any more (another writer of w came first, or
// the others dropped it in turn) nothing happens. The caller keeps
// appenders out of the chunk for the duration, and no one stores into a
// chunk another directory lists, so the copy is of memory at rest.
//
//htap:coldpath
func (w *Words) privatize(i int64, a, b *Words) {
	w.growMu.Lock()
	defer w.growMu.Unlock()
	if !w.sharesChunk(a, i) && (b == nil || !w.sharesChunk(b, i)) {
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
