package olap

import "slices"

// TenantInfo identifies the submitting tenant for weighted-fair dispatch.
// The zero value is the default tenant at weight 1, which is what the
// untenanted ExecuteContext path uses — a pool with a single tenant dispatches
// exactly as it did before tenancy existed (admission-order FIFO with
// socket-affine pops and cross-socket steals).
type TenantInfo struct {
	// Name keys the engine's per-tenant runnable list; empty means
	// "default".
	Name string
	// Weight is the tenant's deficit-round-robin quantum in morsels per
	// round; values below 1 normalize to 1.
	Weight int
}

// tenantQueue is one tenant's dispatch state: its runnable tasks in
// admission order plus the deficit-round-robin bookkeeping. All fields are
// guarded by the engine's mutex.
type tenantQueue struct {
	name   string
	weight int //htap:guardedby Engine.mu
	// deficit is the tenant's remaining service this DRR round, in
	// morsels. It refills by weight when the dispatcher's turn pointer
	// reaches a backlogged tenant with no credit, and resets to zero when
	// the tenant runs out of work — per textbook DRR, an idle queue must
	// not hoard credit for later.
	deficit int //htap:guardedby Engine.mu
	// tasks is the tenant's runnable list in admission order; dispatch
	// within a tenant is unchanged from the engine's original policy.
	tasks []*Task //htap:guardedby Engine.mu
	// dispatched counts morsels handed to workers (or inline drainers)
	// for this tenant over the engine's lifetime — the measured quantity
	// fairness assertions and per-tenant metrics read.
	dispatched int64 //htap:guardedby Engine.mu
}

// runnable reports whether the tenant has unclaimed morsels. Callers hold
// e.mu.
//
//htap:locked Engine.mu
func (tq *tenantQueue) runnable() bool {
	for _, t := range tq.tasks {
		if t.unclaimed > 0 {
			return true
		}
	}
	return false
}

// take claims one morsel for a worker on the given socket, keeping the
// engine's original within-tenant policy: oldest task first, own-socket
// FIFO head before stealing from another socket's tail. The returned bool
// pair is (socket-local, ok). Callers hold e.mu.
//
//htap:locked Engine.mu
func (tq *tenantQueue) take(socket int) (*Task, int, bool, bool) {
	for _, t := range tq.tasks {
		if mi, ok := t.pop(socket); ok {
			return t, mi, true, true
		}
	}
	for _, t := range tq.tasks {
		if mi, ok := t.steal(socket); ok {
			return t, mi, false, true
		}
	}
	return nil, 0, false, false
}

// removeTask drops a completed task from the tenant's runnable list,
// clearing the vacated slot so that the list's backing array keeps no
// finished task, its locals or its merge reachable. Callers hold e.mu.
//
//htap:locked Engine.mu
func (tq *tenantQueue) removeTask(t *Task) {
	if i := slices.Index(tq.tasks, t); i >= 0 {
		tq.tasks = slices.Delete(tq.tasks, i, i+1)
	}
}

// tenantFor returns the tenant's dispatch queue, creating and ring-linking
// it on first submission; a later submission with a different weight
// re-weights the queue in place. Callers hold e.mu.
//
//htap:locked mu
func (e *Engine) tenantFor(tn TenantInfo) *tenantQueue {
	name := tn.Name
	if name == "" {
		name = "default"
	}
	weight := tn.Weight
	if weight < 1 {
		weight = 1
	}
	tq, ok := e.tenants[name]
	if !ok {
		tq = &tenantQueue{name: name, weight: weight}
		e.tenants[name] = tq
		e.ring = append(e.ring, tq)
		return tq
	}
	tq.weight = weight
	return tq
}

// grab pops the next morsel for a worker on the given socket under
// deficit-round-robin across tenants: the dispatcher serves the current
// tenant until its deficit (refilled by its weight per round) is spent or
// its backlog drains, then advances the turn pointer. While several
// tenants stay backlogged, each receives morsels in proportion to its
// weight — weighted-fair morsel throughput — while within a tenant the
// original policy is preserved: oldest task first, own-socket FIFO head
// before stealing another socket's tail. Callers hold e.mu. The returned
// bool reports a socket-local grab.
//
//htap:locked mu
func (e *Engine) grab(socket int) (*Task, int, bool) {
	n := len(e.ring)
	// Two sweeps bound the scan: the first may spend turn advances on
	// tenants whose deficit just refilled; by the second, any tenant with
	// runnable work has positive credit.
	for scanned := 0; scanned < 2*n; scanned++ {
		if e.cur >= n {
			e.cur = 0
		}
		tq := e.ring[e.cur]
		if !tq.runnable() {
			// An idle tenant must not bank credit across its idle period;
			// it re-earns a fresh quantum when work arrives.
			tq.deficit = 0
			e.cur = (e.cur + 1) % n
			continue
		}
		if tq.deficit <= 0 {
			tq.deficit += tq.weight
		}
		if t, mi, local, ok := tq.take(socket); ok {
			tq.deficit--
			tq.dispatched++
			if tq.deficit <= 0 {
				e.cur = (e.cur + 1) % n
			}
			return t, mi, local
		}
		e.cur = (e.cur + 1) % n
	}
	return nil, 0, false
}

// TenantDispatch snapshots the measured per-tenant morsel dispatch
// counters — the denominator-free fairness signal: under saturation the
// counter deltas converge to the tenants' weight ratios.
func (e *Engine) TenantDispatch() map[string]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int64, len(e.tenants))
	for name, tq := range e.tenants {
		out[name] = tq.dispatched
	}
	return out
}
