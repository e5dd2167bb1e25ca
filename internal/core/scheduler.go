package core

import (
	"fmt"
	"slices"
	"sync"

	"elastichtap/internal/rde"
	"elastichtap/internal/topology"
)

// Scheduler owns the state machine: it decides the target state per query
// (Algorithm 2), lays the state out as cores per engine per socket
// (Algorithm 1, the pure layout in migrate.go) and hands each OLAP layout
// to the OLAP worker pool; the OLTP layout is read from Placements when a
// transaction batch starts. It is safe for concurrent use — queries admit
// and migrate from any goroutine.
type Scheduler struct {
	topo                   topology.Config
	oltpSocket, olapSocket int
	// apply resizes the OLAP worker pool; MigrateTo is its only caller.
	apply func(olap topology.Placement)

	mu    sync.Mutex
	cfg   Config //htap:guardedby mu
	state State  //htap:guardedby mu
	// oltp and olap are layout(state, cfg at the last layout): immutable
	// values, replaced whole. stale marks a cfg newer than they are.
	oltp, olap topology.Placement //htap:guardedby mu
	stale      bool               //htap:guardedby mu
}

// NewScheduler builds a scheduler for the machine and boots it in S2, full
// isolation, each engine owning one socket (§5.1). Every layout, the boot
// one included, reaches the OLAP pool through apply, which runs while the
// scheduler lock is held — concurrent migrations resize the pool in
// migration order and can never leave it sized for a stale state — and
// must not call back into the Scheduler. The engines' home sockets must be
// two different sockets of the machine: that is all Algorithm 1 needs to
// place every state, so no later migration can fail.
func NewScheduler(cfg Config, topo topology.Config, oltpSocket, olapSocket int, apply func(olap topology.Placement)) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	for _, sock := range []int{oltpSocket, olapSocket} {
		if sock < 0 || sock >= topo.Sockets {
			return nil, fmt.Errorf("core: engine home socket %d outside the machine's %d socket(s)", sock, topo.Sockets)
		}
	}
	if oltpSocket == olapSocket {
		return nil, fmt.Errorf("core: OLTP and OLAP engines share home socket %d; the states need two", oltpSocket)
	}
	cfg.OLTPCpuThres = slices.Clone(cfg.OLTPCpuThres)
	s := &Scheduler{cfg: cfg, topo: topo, oltpSocket: oltpSocket, olapSocket: olapSocket, apply: apply, stale: true}
	s.MigrateTo(S2)
	return s, nil
}

// Config returns the scheduler configuration. The copy is the caller's:
// writing its OLTPCpuThres does not reach the scheduler.
func (s *Scheduler) Config() Config {
	cfg := s.config()
	cfg.OLTPCpuThres = slices.Clone(cfg.OLTPCpuThres)
	return cfg
}

// config is Config for this package's per-query reads: it shares the
// scheduler's OLTPCpuThres, which nobody writes once SetConfig stored it.
func (s *Scheduler) config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// SetConfig replaces the configuration (experiments sweep α and the
// elastic-core budget at runtime). The next MigrateTo lays out with it.
func (s *Scheduler) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.OLTPCpuThres = slices.Clone(cfg.OLTPCpuThres)
	s.mu.Lock()
	s.cfg, s.stale = cfg, true
	s.mu.Unlock()
	return nil
}

// State returns the current system state.
func (s *Scheduler) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Decide implements Algorithm 2 — freshness-driven resource scheduling.
// Given the measured freshness and whether the query belongs to a batch,
// it returns the state the system should migrate to:
//
//	if Nfq < α·Nft and not a batch:
//	    if elasticity unavailable:        S3-ISOLATED
//	    else if mode is HYBRID:           S3-NON-ISOLATED
//	    else:                             S1
//	else:                                 S2 (ETL)
func (s *Scheduler) Decide(f rde.Freshness, queryBatch bool) State {
	cfg := s.config()
	if float64(f.Nfq) < cfg.Alpha*float64(f.Nft) && !queryBatch {
		if !cfg.Elasticity {
			return S3IS
		}
		if cfg.Mode == ModeHybrid {
			return S3NI
		}
		return S1
	}
	return S2
}

// MigrateTo enforces the target state (Algorithm 1): it records the state
// with its layout and resizes the OLAP worker pool at once — running
// queries shed or gain workers mid-flight. Re-entering the current state,
// what every query of a steady phase does, keeps the published placements
// and re-applies the OLAP one, which the pool takes as a no-op.
//
//htap:hotpath
func (s *Scheduler) MigrateTo(st State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st != s.state || s.stale {
		s.oltp, s.olap = layout(st, s.cfg, s.topo, s.oltpSocket, s.olapSocket)
		s.state, s.stale = st, false
	}
	// Still under s.mu: this migration's layout is applied before any
	// later migration can replace it.
	s.apply(s.olap)
}

// Placements returns the current state and both engines' allocations as
// one cut: no reader can see the state of one migration with the cores of
// another. The placements are shared, not copied — read them only.
func (s *Scheduler) Placements() (st State, oltp, olap topology.Placement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.oltp, s.olap
}
