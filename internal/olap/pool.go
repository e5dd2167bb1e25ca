package olap

// worker is one pool goroutine pinned (logically) to a core on a socket.
// Its lifecycle is owned by the engine: spawned when SetPlacement grants
// the core, retired when a migration revokes it. All fields besides the
// identity are guarded by e.mu.
type worker struct {
	e      *Engine
	socket int
	id     int
	stop   bool //htap:guardedby Engine.mu

	// scratch is this worker's private reusable buffer space, touched
	// only from the worker goroutine itself (outside e.mu, between grab
	// and finish). It lives as long as the worker, so kernels reach
	// steady state after one morsel per worker and allocate nothing
	// after that.
	scratch Scratch
}

// run is the worker loop: grab a morsel (own socket first, then steal),
// consume it outside the engine lock, repeat; park on the condition
// variable when no work is queued. A retire request is honored between
// morsels — never mid-consume — and a retiring worker keeps draining as
// caretaker while queued morsels remain with no active worker to take
// them, so elasticity can never strand a task. Task cancellation needs
// no cooperation here: Cancel empties the cancelled task's queues under
// e.mu, so workers simply never see its remaining morsels — the one they
// are mid-consume on finishes, bounding cancellation latency to a single
// morsel per worker.
func (w *worker) run() {
	e := w.e
	e.mu.Lock()
	for {
		if w.stop && e.mayExit(w) {
			delete(e.stopping, w.id)
			e.nlive--
			e.cond.Broadcast() // wake Close waiters and co-retiring workers
			e.mu.Unlock()
			return
		}
		t, mi, local := e.grab(w.socket)
		if t == nil {
			e.cond.Wait()
			continue
		}
		t.noteClaim(w.id, mi, local)
		e.mu.Unlock()
		t.runMorsel(mi, &w.scratch)
		e.mu.Lock()
		t.finishMorsel()
	}
}

// mayExit reports whether a retiring worker can leave now. Callers hold
// e.mu. It may leave when no unclaimed morsels remain, or when an active
// worker exists to take them, or when another retiring worker with a
// smaller id is designated caretaker. The lowest-id retiring worker stays
// until the queues drain, guaranteeing liveness under a shrink to zero.
//
//htap:locked mu
func (e *Engine) mayExit(w *worker) bool {
	if e.queuesEmpty() {
		return true
	}
	if e.activeWorkers() > 0 {
		return true
	}
	for id := range e.stopping {
		if id < w.id {
			return true
		}
	}
	return false
}
