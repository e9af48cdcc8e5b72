//go:build race

package server

// raceEnabled reports that this test binary runs under the race
// detector, where sync.Pool deliberately drops a fraction of Put items —
// making allocation budgets over pooled buffers meaningless.
const raceEnabled = true
