package kqr_test

import (
	"strings"
	"testing"

	"kqr"
)

// TestOpenRejectsInvalidOptions: every out-of-range option fails Open
// with an error naming the knob, and — the observable form of
// "validated before anything is built" — leaves the dataset unfrozen,
// so an Insert still succeeds afterwards.
func TestOpenRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  kqr.Options
		names string // what the error must mention
	}{
		{"Damping -0.1", kqr.Options{Damping: -0.1}, "damping"},
		{"Damping 1", kqr.Options{Damping: 1}, "damping"},
		{"Damping 1.5", kqr.Options{Damping: 1.5}, "damping"},
		{"ClosenessMaxLen -1", kqr.Options{ClosenessMaxLen: -1}, "maxlen"},
		{"ClosenessBeam -1", kqr.Options{ClosenessBeam: -1}, "beam"},
		{"CandidatesPerTerm -1", kqr.Options{CandidatesPerTerm: -1}, "candidatesperterm"},
		{"SmoothingLambda -0.1", kqr.Options{SmoothingLambda: -0.1}, "smoothinglambda"},
		{"SmoothingLambda 1.5", kqr.Options{SmoothingLambda: 1.5}, "smoothinglambda"},
		{"Similarity 7", kqr.Options{Similarity: 7}, "similarity"},
		{"SearchMaxResults -1", kqr.Options{SearchMaxResults: -1}, "maxresults"},
		{"SearchMaxRadius -1", kqr.Options{SearchMaxRadius: -1}, "maxradius"},
		{"TableMemBudget -1", kqr.Options{TableMemBudget: -1}, "tablemembudget"},
		{"DiskMode without ArtifactPath", kqr.Options{DiskMode: true}, "artifactpath"},
		{"DiskMode with Live", kqr.Options{DiskMode: true, ArtifactPath: "offline.paged", Live: true}, "live"},
		{"StalenessMaxDeltas -1", kqr.Options{Live: true, StalenessMaxDeltas: -1}, "stalenessmaxdeltas"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds := bibliographyDataset(t)
			eng, err := kqr.Open(ds, c.opts)
			if err == nil {
				eng.Close()
				t.Fatalf("Open accepted %+v", c.opts)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.names) {
				t.Errorf("error %q does not name %s", err, c.names)
			}
			if err := ds.Insert("conferences", 99, "LateConf"); err != nil {
				t.Errorf("dataset frozen by a rejected Open: %v", err)
			}
		})
	}
}
