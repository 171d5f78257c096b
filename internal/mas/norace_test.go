//go:build !race

package mas

const raceEnabled = false
