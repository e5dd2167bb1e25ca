// Package core implements the paper's primary contribution: the adaptive
// HTAP scheduler (§4). It models the system as discrete states — S1
// (co-located), S2 (isolated + ETL), S3-IS (hybrid, socket-isolated) and
// S3-NI (hybrid, non-isolated) — migrates between them with Algorithm 1,
// and picks the state per query with the freshness-driven Algorithm 2.
//
// This is the resource half of the paper's RDE engine (internal/rde is the
// data half). What it exchanges is a placement — how many cores an engine
// has on each socket — and it keeps that fact once: Algorithm 1 is the
// pure function layout (migrate.go) of the state, the administrator's
// thresholds and the machine; the Scheduler holds the current state with
// both engines' placements under one mutex; and Scheduler.MigrateTo is the
// one place a placement reaches the OLTP and OLAP worker pools.
package core

import "fmt"

// State is a point in the HTAP design spectrum (§3.4).
type State int8

const (
	// S1 co-locates OLTP and OLAP on every socket; OLAP reads the inactive
	// OLTP instance in place.
	S1 State = iota
	// S2 isolates the engines at socket granularity and ETLs the fresh
	// delta into the OLAP replica before query execution.
	S2
	// S3IS keeps socket isolation; OLAP reads fresh data remotely over the
	// interconnect (full-remote or split access).
	S3IS
	// S3NI lends OLAP some OLTP cores so fresh data is reduced with full
	// local memory bandwidth before crossing the interconnect.
	S3NI
)

// String names the state with the paper's labels.
func (s State) String() string {
	switch s {
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3IS:
		return "S3-IS"
	case S3NI:
		return "S3-NI"
	default:
		return fmt.Sprintf("state(%d)", int8(s))
	}
}

// ElasticityMode is Algorithm 2's Mel knob: which state to prefer when
// elastic resources are available.
type ElasticityMode int8

const (
	// ModeHybrid prefers S3-NI (borrow OLTP cores).
	ModeHybrid ElasticityMode = iota
	// ModeColocation prefers S1 (trade cores between sockets).
	ModeColocation
)

// String names the mode.
func (m ElasticityMode) String() string {
	if m == ModeColocation {
		return "co-location"
	}
	return "hybrid"
}

// Config parameterizes the scheduler. Zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Alpha is the ETL sensitivity α ∈ [0,1] (§4.2): the scheduler migrates
	// to S2 when Nfq >= Alpha*Nft. Smaller values ETL more eagerly.
	Alpha float64

	// Elasticity is Algorithm 2's Fel flag: whether engines may exchange
	// compute resources at all.
	Elasticity bool

	// Mode is Mel: S3-NI versus S1 when elasticity is available.
	Mode ElasticityMode

	// OLTPSockThres is the administrator floor on OLTP sockets (Alg. 1).
	OLTPSockThres int

	// OLTPCpuThres is the administrator floor on OLTP cores per socket in
	// co-located states (Alg. 1). Index by socket.
	OLTPCpuThres []int

	// ElasticCores is how many cores migrations S1/S3-NI move: S1 trades
	// this many cores between the sockets; S3-NI lends this many OLTP
	// cores to OLAP. Bounded below by OLTPCpuThres.
	ElasticCores int

	// SplitAccess enables the split access-path optimization in hybrid
	// states for insert-only fact tables (§5.2).
	SplitAccess bool
}

// DefaultConfig returns the paper's evaluation settings: α=0.5 (§5.3),
// elasticity on in hybrid mode with 4 elastic cores ("with 4-elastic
// cores", §5.3), split access enabled, and an administrator floor of half
// the cores per socket for OLTP.
func DefaultConfig(sockets, coresPerSocket int) Config {
	thres := make([]int, sockets)
	for i := range thres {
		thres[i] = coresPerSocket / 2
	}
	return Config{
		Alpha:         0.5,
		Elasticity:    true,
		Mode:          ModeHybrid,
		OLTPSockThres: 1,
		OLTPCpuThres:  thres,
		ElasticCores:  4,
		SplitAccess:   true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: Alpha %v outside [0,1]", c.Alpha)
	}
	if c.OLTPSockThres < 0 {
		return fmt.Errorf("core: negative OLTPSockThres")
	}
	if c.ElasticCores < 0 {
		return fmt.Errorf("core: negative ElasticCores")
	}
	return nil
}
