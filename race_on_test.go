//go:build race

package elastichtap

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a quarter of what it is given (to shake out misuse), so pooled
// objects are re-allocated and allocation budgets that count on the pool
// are looser there.
const raceEnabled = true
