//go:build !race

package server

// raceEnabled mirrors race_enabled_test.go for normal builds.
const raceEnabled = false
