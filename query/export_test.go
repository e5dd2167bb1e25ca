package query

// ForceHashJoins exposes the forceHashJoins knob to the external tests
// (chgraph_test.go imports internal/ch, which imports this package).
func ForceHashJoins(on bool) { forceHashJoins.Store(on) }
