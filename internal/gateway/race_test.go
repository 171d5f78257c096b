//go:build race

package gateway

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
