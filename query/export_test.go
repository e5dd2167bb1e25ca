package query

import "slices"

// ForceHashJoins exposes the forceHashJoins knob to the external tests
// (chgraph_test.go imports internal/ch, which imports this package).
func ForceHashJoins(on bool) { forceHashJoins.Store(on) }

// ExecOrder returns the relations a bound plan joins, in execution order.
func ExecOrder(c *Compiled) []string {
	var names []string
	for _, j := range c.joins {
		names = append(names, j.dim.Table().Schema().Name)
	}
	return names
}

// ProbedTables exposes probedTables: "spec" when a stamped plan runs
// Q1's fused loop (kernel_fast.go), else the tables the vector loop
// probes.
var ProbedTables = probedTables

// GroupLayout exposes groupLayout: how a stamped plan's group keys
// address their accumulators.
var GroupLayout = groupLayout

// ReverseEdges reverses the plan's join edges in place.
func ReverseEdges(p *Plan) *Plan {
	slices.Reverse(p.graph)
	return p
}
