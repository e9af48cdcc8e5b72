package kqr_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"kqr"
	"kqr/internal/testcorpus"
	"kqr/synthetic"
)

// TestCloseTermsAndFacetsMatchNodeLevelRows: the digests below were
// computed by the last build whose closeness rows held every node
// reached — tuples included — and whose CloseTerms and Facets filtered
// the tuples back out. Rows that hold terms only must give every
// vocabulary term the same ranked close terms (any field, and one
// field), and every single-term and adjacent-pair query the same
// facets, to the last bit of every score.
func TestCloseTermsAndFacetsMatchNodeLevelRows(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	dblp, err := synthetic.Bibliography(synthetic.Config{Seed: 1, Topics: 8, Confs: 32, Authors: 40, Papers: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ds     *kqr.Dataset
		digest string
	}{
		{"testcorpus", kqr.WrapDatabase(db), "b2ae68d9e8756bb9c53e26df9237d5f988fa18163f872015ef9694b55b90e230"},
		{"dblpgen P=200", dblp.Dataset, "45f466c1816a13a4093e3e770f2083dbc4fcff8804b4bc8bdb35bf997d2b1281"},
	} {
		eng, err := kqr.Open(tc.ds, kqr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		vocab := eng.Vocabulary()
		if len(vocab) == 0 {
			t.Fatalf("%s: empty vocabulary", tc.name)
		}
		h := sha256.New()
		for i, term := range vocab {
			for _, field := range []string{"", "papers.title"} {
				close, err := eng.CloseTerms(term, 10, field)
				if err != nil {
					t.Fatalf("%s: CloseTerms(%q, %q): %v", tc.name, term, field, err)
				}
				fmt.Fprintf(h, "close %q %q %v\n", term, field, close)
			}
			for _, query := range [][]string{{term}, {term, vocab[(i+1)%len(vocab)]}} {
				facets, err := eng.Facets(query, 5)
				if err != nil {
					t.Fatalf("%s: Facets(%q): %v", tc.name, query, err)
				}
				fmt.Fprintf(h, "facets %q %v\n", query, facets)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.digest {
			t.Errorf("%s: CloseTerms + Facets over %d terms digest to %s, the node-level rows gave %s", tc.name, len(vocab), got, tc.digest)
		}
	}
}
