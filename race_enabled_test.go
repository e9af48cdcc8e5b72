//go:build race

package kqr_test

// raceEnabled reports that this test binary runs under the race
// detector, where sync.Pool deliberately drops a fraction of Put items —
// making allocation budgets over pooled scratch meaningless.
const raceEnabled = true
