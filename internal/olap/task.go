package olap

import "context"

// Task is one admitted query execution sharing the engine's worker pool.
// Submit returns it immediately; Wait blocks until every morsel is
// consumed and merges the per-morsel partials in morsel order. Cancel
// abandons the task at the next morsel boundary.
type Task struct {
	e    *Engine
	exec Exec
	cols []int
	src  Source

	morsels []morsel
	locals  []Local

	//htap:guardedby Engine.mu
	tq *tenantQueue // owning tenant's dispatch queue; nil for empty tasks
	//htap:guardedby Engine.mu
	queue [][]int // per-socket FIFO of morsel indexes
	//htap:guardedby Engine.mu
	heads     []int            // next FIFO position per socket (owner pops head)
	unclaimed int              //htap:guardedby Engine.mu
	remaining int              //htap:guardedby Engine.mu
	seen      map[int]struct{} //htap:guardedby Engine.mu
	inline    int              //htap:guardedby Engine.mu
	stats     Stats
	err       error // cancellation cause; set before done closes
	done      chan struct{}
}

// pop takes the head of the socket's own queue. Callers hold e.mu.
//
//htap:locked Engine.mu
func (t *Task) pop(socket int) (int, bool) {
	if socket < 0 || socket >= len(t.queue) {
		return 0, false
	}
	q := t.queue[socket]
	if t.heads[socket] >= len(q) {
		return 0, false
	}
	mi := q[t.heads[socket]]
	t.heads[socket]++
	t.unclaimed--
	return mi, true
}

// steal takes the tail of the fullest other socket's queue — the classic
// deque split that keeps thieves away from the owner's sequential front.
// Callers hold e.mu.
//
//htap:locked Engine.mu
func (t *Task) steal(thief int) (int, bool) {
	victim, best := -1, 0
	for s := range t.queue {
		if s == thief {
			continue
		}
		if r := len(t.queue[s]) - t.heads[s]; r > best {
			victim, best = s, r
		}
	}
	if victim < 0 {
		return 0, false
	}
	q := t.queue[victim]
	mi := q[len(q)-1]
	t.queue[victim] = q[:len(q)-1]
	t.unclaimed--
	return mi, true
}

// popAny takes the head of any socket queue, for inline drainers with no
// home socket. The grab bypasses the weighted-fair dispatcher — an inline
// drainer only ever consumes its own task — but still counts toward the
// tenant's measured dispatch. Callers hold e.mu.
//
//htap:locked Engine.mu
func (t *Task) popAny() (int, bool) {
	for s := range t.queue {
		if mi, ok := t.pop(s); ok {
			if t.tq != nil {
				t.tq.dispatched++
			}
			return mi, true
		}
	}
	return 0, false
}

// noteClaim records who consumed a morsel and whether the grab was
// socket-local, feeding the measured locality statistics. A negative
// workerSocket (inline drainer) counts as local: with no placement there
// is no interconnect to charge. Callers hold e.mu.
//
//htap:locked Engine.mu
func (t *Task) noteClaim(workerID, mi int, local bool) {
	t.seen[workerID] = struct{}{}
	m := t.morsels[mi]
	if local {
		t.stats.LocalMorsels++
	} else {
		t.stats.StolenMorsels++
		t.stats.StolenBytesAt[m.socket] += m.bytes(len(t.cols))
	}
}

// bytes is the morsel's payload volume across the scanned columns.
func (m morsel) bytes(ncols int) int64 {
	return (m.hi - m.lo) * int64(ncols) * 8
}

// runMorsel consumes one morsel into its dedicated Local. Called without
// e.mu; the morsel index was claimed exclusively, so no other goroutine
// touches locals[mi]. sc is the claiming worker's (or inline drainer's)
// scratch: the block's column-slice headers come from it, so a warmed
// worker runs a morsel with zero allocations. A Local that implemented
// ScratchConsumer would be handed it for buffers of its own; none does.
func (t *Task) runMorsel(mi int, sc *Scratch) {
	m := t.morsels[mi]
	p := t.src.Parts[m.part]
	blk := Block{Base: m.lo, N: int(m.hi - m.lo), Cols: sc.colSlices(len(t.cols))}
	for k, c := range t.cols {
		blk.Cols[k] = p.Data.Col(c).Slice(m.lo, m.hi)
	}
	if lc, ok := t.locals[mi].(ScratchConsumer); ok {
		lc.ConsumeScratch(blk, sc)
		return
	}
	t.locals[mi].Consume(blk)
}

// finishMorsel retires one consumed morsel; the last one completes the
// task. Callers hold e.mu.
//
//htap:locked Engine.mu
func (t *Task) finishMorsel() {
	t.remaining--
	if t.remaining == 0 {
		t.stats.Workers = len(t.seen)
		t.tq.removeTask(t)
		close(t.done)
	}
}

// Cancel abandons the task: every unclaimed morsel is discarded, so the
// only remaining work is the in-flight morsels workers are mid-consume on
// — cancellation is observed at morsel boundaries, never inside a kernel,
// exactly where the scheduler's elasticity already intervenes. When the
// last in-flight morsel retires the task completes with an error wrapping
// ErrCancelled and cause; partial locals are never merged, and the pool
// and queues are left fully consistent for subsequent tasks. Cancelling a
// completed (or already cancelled) task is a no-op, so a cancel racing
// normal completion keeps the successful result.
func (t *Task) Cancel(cause error) {
	e := t.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.err != nil || t.remaining == 0 {
		return
	}
	t.err = CancelErr(cause)
	discarded := 0
	for s := range t.queue {
		discarded += len(t.queue[s]) - t.heads[s]
		t.heads[s] = len(t.queue[s])
	}
	t.unclaimed -= discarded
	t.remaining -= discarded
	if t.remaining == 0 {
		// No morsel in flight: the task retires here. Otherwise the last
		// finishMorsel completes it, bounding cancellation latency by one
		// morsel's work per active worker.
		t.stats.Workers = len(t.seen)
		t.tq.removeTask(t)
		close(t.done)
	}
}

// drain runs queued morsels of this task on the submitting goroutine —
// the fallback worker when the pool is empty at admission. Morsels
// claimed by pool workers that appeared mid-drain are left to them; a
// cancelled context stops the drain at the next morsel boundary (the
// caller's wait then cancels the task).
func (t *Task) drain(ctx context.Context) {
	e := t.e
	var sc Scratch // one scratch per draining goroutine
	e.mu.Lock()
	t.inline++
	id := -t.inline // one pseudo-worker id per draining goroutine
	for ctx.Err() == nil {
		mi, ok := t.popAny()
		if !ok {
			break
		}
		t.noteClaim(id, mi, true)
		e.mu.Unlock()
		t.runMorsel(mi, &sc)
		e.mu.Lock()
		t.finishMorsel()
	}
	e.mu.Unlock()
}

// WaitContext blocks until the task completes and returns the merged
// result and measured statistics. The merge passes locals in morsel
// order, so results are bitwise deterministic regardless of worker
// interleaving, stealing, or mid-query pool resizes. When ctx ends
// before the task does, the task is cancelled (unclaimed morsels
// discarded, in-flight morsels allowed to finish) and the error wraps
// ErrCancelled together with the context's cause, so errors.Is sees
// both context.Canceled / context.DeadlineExceeded and ErrCancelled.
func (t *Task) WaitContext(ctx context.Context) (Result, Stats, error) {
	e := t.e
	if ctx.Done() != nil {
		// Deliver cancellation the moment the context ends, not when this
		// goroutine happens to wake: a cancel that arrives while the last
		// morsel is in flight must still beat its completion.
		stop := context.AfterFunc(ctx, func() { t.Cancel(ctx.Err()) })
		defer stop()
	}
	e.mu.Lock()
	// Help drain only when no pool goroutine is alive to do it: a pool
	// that merely shrank to zero mid-query still has a caretaker (see
	// Engine.mayExit), and a later SetPlacement can always add workers.
	inline := t.unclaimed > 0 && e.nlive == 0
	e.mu.Unlock()
	if inline {
		t.drain(ctx)
	}
	<-t.done
	// t.err and t.stats are written before done closes; the channel close
	// orders those writes before these reads.
	if t.err != nil {
		return Result{}, t.stats, t.err
	}
	return t.exec.Merge(t.locals), t.stats, nil
}
