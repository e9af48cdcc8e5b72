package live

import (
	"reflect"
	"strings"
	"testing"

	"kqr/internal/closeness"
	"kqr/internal/randomwalk"
	"kqr/internal/testcorpus"
)

// TestTableFingerprint: every Config field is classified, by name, as
// table-affecting or online-only — exactly one of the two, so a field
// added without deciding fails here. Flipping a table-affecting field
// must change the fingerprint (a snapshot or a replica built under the
// other value holds different bits); flipping an online-only one must
// not. Two things no option sets change the bits as well — the walk
// solver and what a closeness row holds — and each build's tag for them
// is in the fingerprint, so a build with another tag has another
// fingerprint.
func TestTableFingerprint(t *testing.T) {
	db, err := testcorpus.New()
	if err != nil {
		t.Fatal(err)
	}
	fp := func(cfg Config) string {
		t.Helper()
		m, err := NewManager(db, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m.TableFingerprint(m.Current())
	}
	tableAffecting := map[string][]Config{
		"Mode":        {{Mode: ModeIndividual}, {Mode: ModeCooccur}},
		"Phrases":     {{Phrases: true}},
		"FoldPlurals": {{FoldPlurals: true}},
	}
	onlineOnly := map[string][]Config{
		"DropOriginal":   {{DropOriginal: true}},
		"AllowDeletion":  {{AllowDeletion: true}},
		"Mend":           {{Mend: true}},
		"TableMemBudget": {{TableMemBudget: 1 << 20}},
	}

	fields := reflect.TypeOf(Config{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		_, table := tableAffecting[name]
		_, online := onlineOnly[name]
		if table == online {
			t.Errorf("Config.%s: in the table-affecting list %t, in the online-only list %t — classify it in exactly one", name, table, online)
		}
	}
	// Each case must set its own field and nothing else.
	checkCase := func(name string, cfg Config) {
		t.Helper()
		v := reflect.ValueOf(cfg)
		if _, ok := fields.FieldByName(name); !ok {
			t.Fatalf("%s is not a Config field", name)
		}
		for i := 0; i < v.NumField(); i++ {
			field := fields.Field(i).Name
			if set := !v.Field(i).IsZero(); set != (field == name) {
				t.Fatalf("case %s: field %s set = %t", name, field, set)
			}
		}
	}

	base := fp(Config{})
	for _, tag := range []string{" solver=" + randomwalk.Solver + " ", " closrows=" + closeness.Rows + " "} {
		if strings.Count(base, tag) != 1 {
			t.Errorf("table fingerprint %q does not carry %q exactly once", base, tag)
		}
	}
	for name, cfgs := range tableAffecting {
		for _, cfg := range cfgs {
			checkCase(name, cfg)
			if got := fp(cfg); got == base {
				t.Errorf("%s %+v does not change the table fingerprint %q", name, cfg, got)
			}
		}
	}
	for name, cfgs := range onlineOnly {
		for _, cfg := range cfgs {
			checkCase(name, cfg)
			if got := fp(cfg); got != base {
				t.Errorf("%s: fingerprint %q, want the default build's %q", name, got, base)
			}
		}
	}
}
