//go:build race

package mavm_test

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
