package serving

import (
	"strings"
	"testing"
)

func TestKeyStructural(t *testing.T) {
	// Distinct term splits never collide.
	if Key("e", []string{"ab"}) == Key("e", []string{"a", "b"}) {
		t.Fatal("term split collision")
	}
	// Terms and options occupy distinct namespaces.
	if Key("e", []string{"k=5"}) == Key("e", nil, "k=5") {
		t.Fatal("term/option collision")
	}
	// Endpoint is part of the key.
	if Key("similar", []string{"x"}) == Key("close", []string{"x"}) {
		t.Fatal("endpoint collision")
	}
	// Option order matters (callers must pass a fixed order).
	if Key("e", nil, "a=1", "b=2") == Key("e", nil, "b=2", "a=1") {
		t.Fatal("option order folded")
	}
	// Same inputs agree.
	if Key("e", []string{"a", "b"}, "k=5") != Key("e", []string{"a", "b"}, "k=5") {
		t.Fatal("key not deterministic")
	}
}

func TestKeyHostileTerms(t *testing.T) {
	// Terms containing the separator syntax cannot forge structure.
	pairs := [][2][]string{
		{{"a|t1:b"}, {"a", "b"}},
		{{"|o3:k=5"}, {}},
		{{"a", ""}, {"a"}},
		{{"3:a"}, {"a"}},
	}
	for _, p := range pairs {
		if Key("e", p[0]) == Key("e", p[1]) {
			t.Fatalf("hostile collision: %q vs %q", p[0], p[1])
		}
	}
}

func TestShardIndexStable(t *testing.T) {
	for _, k := range []string{"", "a", "some-longer-key"} {
		i := keyHash(k) % numShards
		if j := keyHash(k) % numShards; j != i {
			t.Fatalf("shard index unstable: %d vs %d", i, j)
		}
	}
}

// FuzzKeyInjective checks the structural property: two different
// (terms, opts) tuples built from fuzzer-controlled fragments never
// produce the same key, and identical tuples always do.
func FuzzKeyInjective(f *testing.F) {
	f.Add("probabilistic", "ranking", "k=5", 2)
	f.Add("a|t1:b", "", "k=10", 1)
	f.Add("x", "3:a", "field=conferences.name", 0)
	f.Fuzz(func(t *testing.T, t1, t2, opt string, split int) {
		termsA := []string{t1, t2}
		var termsB []string
		switch split % 3 {
		case 0: // join the two terms into one
			termsB = []string{t1 + t2}
		case 1: // move the option into the terms
			termsB = []string{t1, t2, opt}
		case 2: // drop the second term
			termsB = []string{t1}
		}
		keyA := Key("e", termsA, opt)
		var keyB string
		switch split % 3 {
		case 1:
			keyB = Key("e", termsB)
		default:
			keyB = Key("e", termsB, opt)
		}
		same := len(termsA) == len(termsB)
		if same {
			for i := range termsA {
				if termsA[i] != termsB[i] {
					same = false
					break
				}
			}
		}
		// case 1 also moves the option, so the tuples differ even if
		// the term slices match.
		if split%3 == 1 {
			same = false
		}
		if got := keyA == keyB; got != same {
			t.Fatalf("Key collision mismatch: %q vs %q (tuples same=%v)\nkeyA=%q\nkeyB=%q",
				termsA, termsB, same, keyA, keyB)
		}
		if Key("e", termsA, opt) != keyA {
			t.Fatal("key not deterministic")
		}
		if strings.Contains(keyA, "\x00") != strings.Contains(t1+t2+opt, "\x00") {
			t.Fatal("key invented bytes")
		}
	})
}
