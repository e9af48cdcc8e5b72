package serving

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// admit offers key's value twice: the second sighting is the one that
// makes it resident.
func admit(c *Cache, key string, val []byte) {
	c.Put(key, val)
	c.Put(key, val)
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	admit(c, "a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	// Replacement keeps one entry and the newest value, and a resident
	// key needs no second sighting.
	c.Put("a", []byte("beta"))
	v, _ = c.Get("a")
	if string(v) != "beta" {
		t.Fatalf("after replace Get(a) = %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replacing one key", c.Len())
	}
}

// The cache keeps its own copy of an admitted or replaced value: the
// caller's buffer is free for reuse once Put returns.
func TestCachePutCopies(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	buf := []byte("alpha")
	admit(c, "a", buf)
	copy(buf, "XXXXX")
	if v, _ := c.Get("a"); string(v) != "alpha" {
		t.Fatalf("admitted value changed with the caller's buffer: %q", v)
	}
	copy(buf, "gamma")
	c.Put("a", buf)
	copy(buf, "XXXXX")
	if v, _ := c.Get("a"); string(v) != "gamma" {
		t.Fatalf("replaced value changed with the caller's buffer: %q", v)
	}
}

// A key earns its entry on the second sighting: the first Put leaves
// nothing resident, the second does, the Get after it hits.
func TestCacheAdmitsOnSecondSighting(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	c.Put("a", []byte("alpha"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("first sighting is resident")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("first sighting charged: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	c.Put("a", []byte("alpha2"))
	if v, ok := c.Get("a"); !ok || string(v) != "alpha2" {
		t.Fatalf("second sighting: Get(a) = %q, %v", v, ok)
	}
	// The sighting was spent: once the entry is gone the key earns its
	// place again.
	c.now = func() time.Time { return time.Now().Add(time.Hour) }
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	c.Put("a", []byte("alpha3"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("re-admitted on one sighting after expiry")
	}
}

// A stream of keys that never repeat — tail traffic — leaves the cache
// empty.
func TestCacheNeverRepeatingStreamStaysEmpty(t *testing.T) {
	c := NewCache(64<<20, time.Minute)
	val := make([]byte, 8<<10)
	for i := 0; i < 100_000; i++ {
		c.Put(fmt.Sprintf("tail-%d", i), val)
		if i%10_000 == 0 && c.Bytes() != 0 {
			t.Fatalf("after %d distinct keys the cache holds %d bytes", i+1, c.Bytes())
		}
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("100k distinct keys left %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

// Two keys on one doorkeeper slot overwrite each other's sighting (last
// writer wins): each pays at most one extra miss, and neither is ever
// answered with the other's value.
func TestCacheDoorkeeperCollision(t *testing.T) {
	a, b := doorCollision(t)
	c := NewCache(1<<20, time.Minute)
	c.Put(a, []byte("A")) // a sighted
	c.Put(b, []byte("B")) // b takes the slot
	c.Put(a, []byte("A")) // a's second sighting finds b's mark: counts as a first
	if _, ok := c.Get(a); ok {
		t.Fatal("a resident although its sighting was overwritten")
	}
	c.Put(a, []byte("A")) // one extra miss later a is in
	if v, ok := c.Get(a); !ok || string(v) != "A" {
		t.Fatalf("Get(a) = %q, %v after its extra miss", v, ok)
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("b resident on one sighting")
	}
	c.Put(b, []byte("B")) // b's mark was overwritten by a's: a first sighting again
	c.Put(b, []byte("B"))
	if v, ok := c.Get(b); !ok || string(v) != "B" {
		t.Fatalf("Get(b) = %q, %v after its extra miss", v, ok)
	}
	if v, _ := c.Get(a); string(v) != "A" {
		t.Fatalf("Get(a) = %q after b was admitted", v)
	}
}

// doorCollision finds two keys with the same shard and doorkeeper slot
// but different fingerprints.
func doorCollision(t *testing.T) (string, string) {
	t.Helper()
	seen := map[uint64]string{}
	for i := 0; i < 1_000_000; i++ {
		k := fmt.Sprintf("dkey-%d", i)
		h := keyHash(k)
		at := h % (numShards * doorSlots) // shard and slot bits together
		if prev, ok := seen[at]; ok && uint32(keyHash(prev)>>32)|1 != uint32(h>>32)|1 {
			return prev, k
		}
		seen[at] = k
	}
	t.Fatal("no doorkeeper collision found")
	return "", ""
}

func TestCacheTTL(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	admit(c, "a", []byte("alpha"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	// Expired Get removes the entry.
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expiry", c.Len())
	}
}

func TestCacheNoTTL(t *testing.T) {
	c := NewCache(1<<20, 0)
	c.now = func() time.Time { return time.Unix(1, 0) }
	admit(c, "a", []byte("alpha"))
	c.now = func() time.Time { return time.Unix(1e9, 0) }
	if _, ok := c.Get("a"); !ok {
		t.Fatal("ttl<=0 should never expire")
	}
}

func TestCacheEviction(t *testing.T) {
	// Tiny budget: each shard holds ~2 small entries.
	c := NewCache(numShards*2*(entryOverhead+40), time.Minute)
	for i := 0; i < 400; i++ {
		admit(c, fmt.Sprintf("key-%03d", i), make([]byte, 32))
	}
	if got, want := c.Bytes(), int64(numShards*2*(entryOverhead+40)); got > want {
		t.Fatalf("cache bytes %d exceed budget %d", got, want)
	}
	if n := c.Len(); n == 0 || n >= 400 {
		t.Fatalf("%d entries after 400 admissions into a ~32-entry budget", n)
	}
	// An oversized value still caches (newest entry never evicted).
	big := make([]byte, 10*(entryOverhead+40))
	admit(c, "big", big)
	if v, ok := c.Get("big"); !ok || len(v) != len(big) {
		t.Fatal("oversized entry not admitted")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Single-shard-sized test: use keys that land on one shard by
	// brute-force search, then verify the recently used key survives.
	c := NewCache(numShards*3*(entryOverhead+20), time.Minute)
	shard0 := shardKeys(t, 4)
	for _, k := range shard0[:3] {
		admit(c, k, make([]byte, 10))
	}
	// Touch the oldest so it becomes most recent.
	if _, ok := c.Get(shard0[0]); !ok {
		t.Fatal("expected hit")
	}
	// Inserting a fourth evicts the least recently used (shard0[1]).
	admit(c, shard0[3], make([]byte, 10))
	if _, ok := c.Get(shard0[0]); !ok {
		t.Fatal("recently used key evicted")
	}
	if _, ok := c.Get(shard0[1]); ok {
		t.Fatal("LRU key survived eviction")
	}
}

// shardKeys returns n distinct keys that all hash to shard 0, on
// distinct doorkeeper slots.
func shardKeys(t *testing.T, n int) []string {
	t.Helper()
	var keys []string
	slots := map[uint64]bool{}
	for i := 0; len(keys) < n && i < 100000; i++ {
		k := fmt.Sprintf("skey-%d", i)
		h := keyHash(k)
		if slot := (h / numShards) % doorSlots; h%numShards == 0 && !slots[slot] {
			slots[slot] = true
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatal("could not find enough shard-0 keys")
	}
	return keys
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1<<16, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k-%d", (g*31+i)%97)
				if v, ok := c.Get(k); ok && len(v) != 16 {
					t.Errorf("corrupt value len %d", len(v))
					return
				}
				c.Put(k, make([]byte, 16))
			}
		}(g)
	}
	wg.Wait()
}

// Puts and Gets racing on one shard — one lock, one doorkeeper table —
// under the race detector: every key is offered often enough to be
// admitted, and a hit always carries its own key's value.
func TestCacheConcurrentOneShard(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	keys := shardKeys(t, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(g*7+i)%len(keys)]
				if v, ok := c.Get(k); ok && string(v) != k {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
				c.Put(k, []byte(k))
			}
		}(g)
	}
	wg.Wait()
	for _, k := range keys {
		if v, ok := c.Get(k); !ok || string(v) != k {
			t.Fatalf("after the race Get(%q) = %q, %v", k, v, ok)
		}
	}
}

// What tail traffic costs the cache: a miss and a first sighting touch
// one lock, one map lookup and one doorkeeper slot, and allocate nothing.
func TestCacheFirstSightingZeroAllocs(t *testing.T) {
	c := NewCache(1<<20, time.Minute)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("tail-%d", i)
	}
	val := make([]byte, 64)
	i := 0
	allocs := testing.AllocsPerRun(len(keys)-1, func() {
		c.Get(keys[i])
		c.Put(keys[i], val)
		i++
	})
	if allocs != 0 || c.Len() != 0 {
		t.Fatalf("a miss and a first sighting allocate %.1f times and left %d entries, want 0 and 0", allocs, c.Len())
	}
}
