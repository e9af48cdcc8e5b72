package kqr_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"kqr"
	"kqr/internal/closeness"
	"kqr/internal/core"
	"kqr/internal/keywordsearch"
	"kqr/internal/randomwalk"
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
		{"Similarity 7", kqr.Options{Similarity: 7}, "similarity"},
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

	// The tuning knobs the paper sweeps (Alg. 1's λ, §V-B's n, Eq. 5–6's
	// λ, Eq. 3's hop bound and beam, Def. 3's bounds) are not Open's to
	// take: they are set on each package's own Options, whose Resolve is
	// the one place their defaults and ranges are written. Each row
	// checks that the owning package refuses the range with an error
	// naming the knob.
	knobs := []struct {
		name  string
		err   error
		names string
	}{
		{"Damping -0.1", resolveErr(randomwalk.Options{Damping: -0.1}), "damping"},
		{"Damping 1", resolveErr(randomwalk.Options{Damping: 1}), "damping"},
		{"Damping 1.5", resolveErr(randomwalk.Options{Damping: 1.5}), "damping"},
		{"ClosenessMaxLen -1", resolveErr(closeness.Options{MaxLen: -1}), "maxlen"},
		{"ClosenessBeam -1", resolveErr(closeness.Options{Beam: -1}), "beam"},
		{"CandidatesPerTerm -1", resolveErr(core.Options{CandidatesPerTerm: -1}), "candidatesperterm"},
		{"SmoothingLambda -0.1", resolveErr(core.Options{SmoothingLambda: -0.1}), "smoothinglambda"},
		{"SmoothingLambda 1.5", resolveErr(core.Options{SmoothingLambda: 1.5}), "smoothinglambda"},
		{"SearchMaxResults -1", resolveErr(keywordsearch.Options{MaxResults: -1}), "maxresults"},
		{"SearchMaxRadius -1", resolveErr(keywordsearch.Options{MaxRadius: -1}), "maxradius"},
	}
	for _, c := range knobs {
		t.Run(c.name, func(t *testing.T) {
			if c.err == nil {
				t.Fatal("Resolve accepted the value")
			}
			if !strings.Contains(strings.ToLower(c.err.Error()), c.names) {
				t.Errorf("error %q does not name %s", c.err, c.names)
			}
		})
	}
}

// resolveErr is the range error of a package's Options.Resolve.
func resolveErr[O interface{ Resolve() (O, error) }](o O) error {
	_, err := o.Resolve()
	return err
}

// TestOptionsLedgerMatchesDesign: DESIGN.md §7's "`kqr.Options` (N
// fields)" table names exactly the exported fields of kqr.Options — N
// is their count, and the backticked names of the table's first column
// are their names — so a field added without a row, or a row kept for a
// deleted field, fails here.
func TestOptionsLedgerMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	header := regexp.MustCompile("^### `kqr\\.Options` \\((\\d+) fields\\)$")
	at := slices.IndexFunc(lines, header.MatchString)
	if at < 0 {
		t.Fatalf("DESIGN.md has no %q heading", header)
	}
	count, _ := strconv.Atoi(header.FindStringSubmatch(lines[at])[1])

	// The table's rows, separator excluded, up to the first line after
	// it that is not a row.
	var rows []string
	for _, line := range lines[at+1:] {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		} else if len(rows) > 0 {
			break
		}
	}
	if len(rows) < 2 {
		t.Fatal("the kqr.Options heading is not followed by a table")
	}
	name := regexp.MustCompile("`([A-Za-z0-9_]+)`")
	var listed []string
	for _, row := range rows[2:] {
		first := strings.SplitN(row, "|", 3)[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			listed = append(listed, m[1])
		}
	}

	var fields []string
	typ := reflect.TypeOf(kqr.Options{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			fields = append(fields, f.Name)
		}
	}
	if count != len(fields) {
		t.Errorf("DESIGN.md says kqr.Options has %d fields; it has %d", count, len(fields))
	}
	for _, f := range fields {
		if !slices.Contains(listed, f) {
			t.Errorf("kqr.Options.%s has no row in DESIGN.md's kqr.Options table", f)
		}
	}
	for _, n := range listed {
		if !slices.Contains(fields, n) {
			t.Errorf("DESIGN.md's kqr.Options table has a row for %s, which kqr.Options does not declare", n)
		}
	}
}
