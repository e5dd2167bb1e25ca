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

// ReverseEdges reverses the plan's join edges in place.
func ReverseEdges(p *Plan) *Plan {
	slices.Reverse(p.graph)
	return p
}
