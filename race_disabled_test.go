//go:build !race

package kqr_test

// raceEnabled mirrors race_enabled_test.go for normal builds.
const raceEnabled = false
