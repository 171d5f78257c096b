//go:build !race

package mavm_test

const raceEnabled = false
