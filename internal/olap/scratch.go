package olap

// Scratch is per-worker reusable buffer space. Each long-lived pool
// worker owns exactly one Scratch for its whole lifetime, and every
// inline drainer owns one for the duration of its drain, so the buffers
// are only ever touched by a single goroutine at a time and steady-state
// execution allocates nothing per morsel: the engine's column-slice
// header array is taken from here instead of a shared sync.Pool that
// bounces between cores. The query kernels (query/aggregate.go) keep
// their vectors — selection, group offsets, payload words — on the
// consuming goroutine's stack.
type Scratch struct {
	cols [][]int64
}

// colSlices returns a reusable [][]int64 of length n for the block's
// column-slice headers. The returned slice is valid until the next call
// on the same Scratch.
func (s *Scratch) colSlices(n int) [][]int64 {
	if cap(s.cols) < n {
		s.cols = make([][]int64, n)
	}
	s.cols = s.cols[:n]
	return s.cols
}

// ScratchConsumer is implemented by Locals that want per-worker scratch.
// The engine calls ConsumeScratch instead of Consume, passing the
// claiming worker's (or inline drainer's) Scratch. Implementations must
// not retain the Scratch or the Block's column slices beyond the call.
// No Local in this repository implements it; the engine and the
// benchmark's hand-driven probe (bench/probe.go) only test for it.
type ScratchConsumer interface {
	Local
	ConsumeScratch(b Block, sc *Scratch)
}
