//go:build !race

package elastichtap

const raceEnabled = false
