package live

import (
	"reflect"
	"strings"
	"testing"

	"kqr/internal/closeness"
	"kqr/internal/core"
	"kqr/internal/keywordsearch"
	"kqr/internal/randomwalk"
	"kqr/internal/testcorpus"
)

// TestTableFingerprint: every Config field is classified, by name, as
// table-affecting or online-only — exactly one of the two, so a field
// added without deciding fails here. Flipping a table-affecting field
// must change the fingerprint (a snapshot or a replica built under the
// other value holds different bits); flipping an online-only one must
// not; and spelling the defaults out must not either (the zero value
// and the resolved config build the same tables). Two things no option
// sets change the bits as well — the walk solver and what a closeness
// row holds — and each build's tag for them is in the fingerprint, so
// a build with another tag has another fingerprint.
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
		"Mode":             {{Mode: ModeIndividual}, {Mode: ModeCooccur}},
		"Walk.Damping":     {{Walk: randomwalk.Options{Damping: 0.5}}},
		"Closeness.MaxLen": {{Closeness: closeness.Options{MaxLen: 2}}},
		"Closeness.Beam":   {{Closeness: closeness.Options{Beam: 3}}},
		"Phrases":          {{Phrases: true}},
		"FoldPlurals":      {{FoldPlurals: true}},
	}
	onlineOnly := map[string][]Config{
		"Workers":                  {{Workers: 3}},
		"Online.CandidatesPerTerm": {{Online: core.Options{CandidatesPerTerm: 4}}},
		"Online.SmoothingLambda":   {{Online: core.Options{SmoothingLambda: 0.5}}},
		"Online.DropOriginal":      {{Online: core.Options{DropOriginal: true}}},
		"Online.AllowDeletion":     {{Online: core.Options{AllowDeletion: true}}},
		"Online.Algorithm":         {{Online: core.Options{Algorithm: core.AlgTopKViterbi}}},
		"Search.MaxResults":        {{Search: keywordsearch.Options{MaxResults: 5}}},
		"Search.MaxRadius":         {{Search: keywordsearch.Options{MaxRadius: 2}}},
		"Mend":                     {{Mend: true}},
		"TableMemBudget":           {{TableMemBudget: 1 << 20}},
	}

	// leaves lists every scalar knob reachable from v by dotted path —
	// the nested options structs are flattened, so a field added to a
	// consuming package's Options has to be classified here too.
	var leaves func(prefix string, v reflect.Value, visit func(name string, leaf reflect.Value))
	leaves = func(prefix string, v reflect.Value, visit func(string, reflect.Value)) {
		for i := 0; i < v.NumField(); i++ {
			name, f := prefix+v.Type().Field(i).Name, v.Field(i)
			if f.Kind() == reflect.Struct {
				leaves(name+".", f, visit)
			} else {
				visit(name, f)
			}
		}
	}
	leaves("", reflect.ValueOf(Config{}), func(name string, _ reflect.Value) {
		_, table := tableAffecting[name]
		_, online := onlineOnly[name]
		if table == online {
			t.Errorf("Config.%s: in the table-affecting list %t, in the online-only list %t — classify it in exactly one", name, table, online)
		}
	})
	// Each case must flip its own knob and nothing else.
	checkCase := func(name string, cfg Config) {
		t.Helper()
		found := false
		leaves("", reflect.ValueOf(cfg), func(leaf string, v reflect.Value) {
			found = found || leaf == name
			if set := !v.IsZero(); set != (leaf == name) {
				t.Fatalf("case %s: knob %s set = %t", name, leaf, set)
			}
		})
		if !found {
			t.Fatalf("%s is not a Config knob", name)
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
	explicit, err := Config{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Walk.Damping == 0 || explicit.Closeness.MaxLen == 0 {
		t.Fatalf("Resolve left a table-affecting default unset: %+v", explicit)
	}
	if got := fp(explicit); got != base {
		t.Errorf("explicit defaults: fingerprint %q, want the zero value's %q", got, base)
	}
}
