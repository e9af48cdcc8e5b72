package mend

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzMend feeds arbitrary Unicode through the mender and checks the
// structural invariants: no panic, every emitted term resolves in the
// vocabulary, and mending is idempotent.
func FuzzMend(f *testing.F) {
	f.Add("databse systems")
	f.Add("databasesystems")
	f.Add("datab ase")
	f.Add("ZZZZ ¿¿¿ 漢字テスト")
	f.Add("áccent ëxtra")
	f.Add("\x00\xff broken � utf8")
	f.Add(strings.Repeat("x", 300))
	f.Add("alice ames")
	f.Add("alice amse")
	f.Add("aliceames")
	m := testMender(Options{})
	f.Fuzz(func(t *testing.T, q string) {
		terms := strings.Fields(q)
		res := m.Mend(terms)
		if len(res.Tokens) > len(terms) {
			t.Fatalf("more provenance entries than tokens: %d > %d", len(res.Tokens), len(terms))
		}
		for _, term := range res.Terms {
			if !m.resolvable(term) {
				t.Fatalf("emitted non-vocabulary term %q for %q", term, q)
			}
		}
		second := m.Mend(res.Terms)
		if second.Changed || !reflect.DeepEqual(second.Terms, res.Terms) {
			t.Fatalf("not idempotent on %q: %v -> %v", q, res.Terms, second.Terms)
		}
	})
}
