package serving

import (
	"hash/maphash"
	"strconv"
	"strings"
)

// Key builds a canonical, collision-free cache key for one request.
//
// The caller passes the endpoint name, the *parsed* query terms, and
// any extra options (already formatted as "name=value"). Parsing is
// the canonicalization step: two query strings that differ only in
// whitespace or quoting style ("a  b", `"a" b`) parse to the same term
// slice and therefore map to the same key, while term order is
// preserved (reformulation is order-sensitive — the HMM transition
// chain depends on it).
//
// Every component is length-prefixed and tagged (o for option, t for
// term), so no concatenation of distinct components can collide on the
// structural form: Key("e", ["ab"]) != Key("e", ["a", "b"]) and terms
// can never be confused with options.
func Key(endpoint string, terms []string, opts ...string) string {
	var b strings.Builder
	n := len(endpoint) + 8
	for _, o := range opts {
		n += len(o) + 6
	}
	for _, t := range terms {
		n += len(t) + 6
	}
	b.Grow(n)
	b.WriteString(endpoint)
	for _, o := range opts {
		b.WriteByte('|')
		b.WriteByte('o')
		b.WriteString(strconv.Itoa(len(o)))
		b.WriteByte(':')
		b.WriteString(o)
	}
	for _, t := range terms {
		b.WriteByte('|')
		b.WriteByte('t')
		b.WriteString(strconv.Itoa(len(t)))
		b.WriteByte(':')
		b.WriteString(t)
	}
	return b.String()
}

// EpochKey is Key tagged with an index-generation epoch: entries cached
// against one generation can never answer requests served by another.
// Promotion thereby invalidates every stale entry lazily — old-epoch
// entries just stop being looked up and age out of the LRU — without
// flushing shards that also hold unrelated live entries.
func EpochKey(epoch uint64, endpoint string, terms []string, opts ...string) string {
	return "e" + strconv.FormatUint(epoch, 10) + "|" + Key(endpoint, terms, opts...)
}

// hashSeed is shared by all caches so a key always lands on the same
// shard and doorkeeper slot for a given cache geometry.
var hashSeed = maphash.MakeSeed()

// keyHash is the one hash of a cache key: its low bits pick the shard,
// the next ones the doorkeeper slot, the top half is the fingerprint.
func keyHash(key string) uint64 { return maphash.String(hashSeed, key) }
