// Package topology models the scale-up server the HTAP system runs on:
// CPU sockets, cores per socket, per-socket memory bandwidth and the
// cross-socket interconnect — and the unit in which compute is handed to
// an engine, the Placement: how many cores the engine has on each socket.
//
// The paper runs on a 2x14-core Xeon with real thread pinning. The Go
// runtime hides core pinning, so nothing here names an individual core: a
// placement is a per-socket count, internal/core decides it (Algorithm 1)
// and its performance consequences are charged by internal/costmodel.
package topology

import (
	"errors"
	"sort"
)

// Config describes the machine. Bandwidths are bytes/second.
type Config struct {
	Sockets        int     // number of CPU sockets
	CoresPerSocket int     // hardware threads per socket
	LocalBW        float64 // per-socket DRAM bandwidth, bytes/s
	InterconnectBW float64 // per-link cross-socket bandwidth, bytes/s (one direction)
}

// DefaultConfig returns the paper's evaluation machine: 2 sockets x 14
// cores. The interconnect figure is the *effective* cross-socket scan
// bandwidth with prefetch overlapped onto execution (§3.3); it stays a
// few times below the local memory bandwidth (§3.4).
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 14,
		LocalBW:        80e9,
		InterconnectBW: 16e9,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return errors.New("topology: Sockets must be positive")
	case c.CoresPerSocket <= 0:
		return errors.New("topology: CoresPerSocket must be positive")
	case c.LocalBW <= 0:
		return errors.New("topology: LocalBW must be positive")
	case c.InterconnectBW <= 0:
		return errors.New("topology: InterconnectBW must be positive")
	case c.InterconnectBW > c.LocalBW:
		return errors.New("topology: interconnect faster than local memory is not a scale-up server")
	}
	return nil
}

// Placement is an engine's compute allocation: a core count per socket.
// The scheduler publishes each placement once and replaces it whole on the
// next migration, so holders may share PerSocket but must not write it.
type Placement struct {
	// PerSocket[s] is the number of cores the engine owns on socket s.
	PerSocket []int
}

// Total returns the machine-wide number of cores in the placement.
func (p Placement) Total() int {
	n := 0
	for _, c := range p.PerSocket {
		n += c
	}
	return n
}

// Sockets returns the sockets (ascending) where the placement has cores.
func (p Placement) Sockets() []int {
	var out []int
	for s, c := range p.PerSocket {
		if c > 0 {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// On returns the core count on socket s (0 if out of range).
func (p Placement) On(s int) int {
	if s < 0 || s >= len(p.PerSocket) {
		return 0
	}
	return p.PerSocket[s]
}

// Equal reports whether two placements allocate the same cores per socket
// (missing sockets count as zero).
func (p Placement) Equal(q Placement) bool {
	n := len(p.PerSocket)
	if len(q.PerSocket) > n {
		n = len(q.PerSocket)
	}
	for s := 0; s < n; s++ {
		if p.On(s) != q.On(s) {
			return false
		}
	}
	return true
}

// Diff returns the per-socket core deltas migrating from p to q: out[s] =
// q.On(s) - p.On(s), over the longer of the two socket lists. Positive
// entries are cores the engine gains, negative entries cores it must cede
// — the worker-pool resize an RDE migration enforces.
func (p Placement) Diff(q Placement) []int {
	n := len(p.PerSocket)
	if len(q.PerSocket) > n {
		n = len(q.PerSocket)
	}
	out := make([]int, n)
	for s := 0; s < n; s++ {
		out[s] = q.On(s) - p.On(s)
	}
	return out
}

// Clone returns a deep copy of the placement.
func (p Placement) Clone() Placement {
	out := Placement{PerSocket: make([]int, len(p.PerSocket))}
	copy(out.PerSocket, p.PerSocket)
	return out
}
