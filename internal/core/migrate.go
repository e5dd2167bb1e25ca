package core

import (
	"elastichtap/internal/topology"
)

// layout is Algorithm 1 — State Migration — as a function of its inputs:
// the cores each engine holds on each socket in state st. It has no
// failing case for sockets inside the topology (NewScheduler checks them
// once), and it does not depend on the state migrated from, so a candidate
// state can be laid out, and priced, without migrating to it. The
// administrator thresholds OLTPSockThres and OLTPCpuThres bound how much
// compute can be revoked from the OLTP engine.
//
//htap:hotpath
func layout(st State, cfg Config, topo topology.Config, oltpSocket, olapSocket int) (oltp, olap topology.Placement) {
	n := topo.CoresPerSocket
	oltp, olap = newPlacement(topo.Sockets), newPlacement(topo.Sockets)
	if st == S2 || st == S3IS {
		// Whole sockets per the administrator policy: the OLTP engine keeps
		// OLTPSockThres of them, its home socket first and then ascending,
		// and the OLAP engine receives the rest. S3-IS differs from S2 in
		// the access path (remote or split reads), not in the layout.
		for d := 0; d < topo.Sockets; d++ {
			sock := (oltpSocket + d) % topo.Sockets
			if d < cfg.OLTPSockThres {
				oltp.PerSocket[sock] = n
			} else {
				olap.PerSocket[sock] = n
			}
		}
		return oltp, olap
	}
	// S1 and S3-NI move x elastic cores, never taking the OLTP engine below
	// its per-socket CPU floor. S3-NI lends them: OLAP gains x data-local
	// cores on the OLTP socket and keeps its own. S1 trades them: OLTP
	// receives the same number on the OLAP socket. Sockets beyond the
	// engine pair (Figure 1's 4-socket machine) stay with neither engine.
	x := min(cfg.ElasticCores, n-cfg.cpuFloor(oltpSocket, n))
	oltp.PerSocket[oltpSocket], olap.PerSocket[oltpSocket] = n-x, x
	olap.PerSocket[olapSocket] = n
	if st == S1 {
		oltp.PerSocket[olapSocket], olap.PerSocket[olapSocket] = x, n-x
	}
	return oltp, olap
}

// newPlacement allocates the counts a placement keeps for as long as it
// is published: once per engine per layout, nothing per query of a phase
// that stays in its state.
//
//htap:coldpath
func newPlacement(sockets int) topology.Placement {
	return topology.Placement{PerSocket: make([]int, sockets)}
}

// cpuFloor returns the per-socket OLTP core floor, within [0, cores].
func (c Config) cpuFloor(socket, coresPerSocket int) int {
	if socket < len(c.OLTPCpuThres) {
		return max(min(c.OLTPCpuThres[socket], coresPerSocket), 0)
	}
	return 0
}
