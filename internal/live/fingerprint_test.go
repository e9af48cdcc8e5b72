package live

import (
	"testing"

	"kqr/internal/closeness"
	"kqr/internal/core"
	"kqr/internal/randomwalk"
	"kqr/internal/testcorpus"
)

// TestTableFingerprint: flipping any Config field the extractors read
// must change the fingerprint (a snapshot or a replica built under the
// other value holds different bits), spelling a default out must not
// (the zero value and the default build the same tables), and a field
// only the online stage reads must not either.
func TestTableFingerprint(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	fp := func(cfg Config) string {
		t.Helper()
		g, err := Build(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return TableFingerprint(g, cfg)
	}
	base := fp(Config{})
	for name, cfg := range map[string]Config{
		"Mode individual": {Mode: ModeIndividual},
		"Mode cooccur":    {Mode: ModeCooccur},
		"Damping":         {Damping: 0.5},
		"ClosenessMaxLen": {ClosenessMaxLen: 2},
		"ClosenessBeam":   {ClosenessBeam: 3},
		"Phrases":         {Phrases: true},
		"FoldPlurals":     {FoldPlurals: true},
	} {
		if got := fp(cfg); got == base {
			t.Errorf("%s does not change the table fingerprint %q", name, got)
		}
	}
	for name, cfg := range map[string]Config{
		"explicit defaults": {Damping: randomwalk.DefaultDamping, ClosenessMaxLen: closeness.DefaultMaxLen},
		"online-only knobs": {Workers: 3, CandidatesPerTerm: 4, SmoothingLambda: 0.5, DropOriginal: true,
			AllowDeletion: true, Algorithm: core.AlgTopKViterbi, SearchMaxResults: 5, SearchMaxRadius: 2, Mend: true},
	} {
		if got := fp(cfg); got != base {
			t.Errorf("%s: fingerprint %q, want the default build's %q", name, got, base)
		}
	}
}
