//go:build race

package mas

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
