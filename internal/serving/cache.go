package serving

import (
	"bytes"
	"container/list"
	"sync"
	"time"
)

// numShards is the fixed shard count; a power of two keeps the modulo
// cheap and 16 spreads lock contention far past the core counts the
// server sees.
const numShards = 16

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map bucket slot, entry struct) charged against the byte
// budget in addition to key and value bytes.
const entryOverhead = 120

// doorSlots is the size of each shard's doorkeeper, the direct-mapped
// table of key fingerprints that remembers first sightings (see Put).
// A fingerprint survives until another first sighting lands on its
// slot, i.e. for numShards*doorSlots = 65,536 distinct new keys on
// average — the admission window is that divided by the miss rate. 16
// shards x 4,096 slots x 4 bytes = 256 KiB per cache.
const doorSlots = 4096

// Cache is a sharded LRU byte cache with a global byte budget, a
// per-entry TTL and admission on the second sighting (see Put). Values
// are []byte blobs (pre-encoded JSON response bodies) the cache owns:
// Put keeps a copy, and callers must not mutate what Get returns.
type Cache struct {
	shards [numShards]shard
	ttl    time.Duration
	// now is swappable for tests.
	now func() time.Time
}

type shard struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64
	maxBytes int64
	// door[slot] is the fingerprint of the last not-yet-resident key
	// Put saw on that slot; 0 is empty.
	door [doorSlots]uint32
}

type entry struct {
	key     string
	val     []byte
	expires time.Time
	size    int64
}

// NewCache builds a cache holding at most maxBytes across all shards;
// entries older than ttl are treated as absent (ttl <= 0 means no
// expiry). maxBytes below one entry per shard still admits single
// entries — each shard keeps at least its newest entry.
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	c := &Cache{ttl: ttl, now: time.Now}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].maxBytes = per
	}
	return c
}

// Get returns the cached value for key, if present and unexpired.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := &c.shards[keyHash(key)%numShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	en := el.Value.(*entry)
	if c.ttl > 0 && c.now().After(en.expires) {
		s.remove(el)
		return nil, false
	}
	s.ll.MoveToFront(el)
	return en.val, true
}

// Put offers the value for key. A resident key's value is replaced; a
// key that is not resident earns its entry on the second sighting: the
// first Put only leaves the key's fingerprint in the shard's
// doorkeeper, and the value is kept when a later Put finds it still
// there. A stream of keys that never repeat therefore costs the cache
// nothing, and a key that does repeat costs one extra miss — as does a
// key whose fingerprint another first sighting on the same slot
// overwrote in between (last writer wins). Two keys sharing slot and
// fingerprint admit one of them a sighting early; entries are keyed by
// the full key, so a collision can never answer with the wrong value.
// Inserting evicts least-recently used entries until the shard is back
// under its byte budget; the newest entry is never evicted, so one
// oversized value still caches. The cache keeps a copy of val, made only
// when the key is admitted or replaced, so the caller may reuse val's
// buffer as soon as Put returns.
func (c *Cache) Put(key string, val []byte) {
	h := keyHash(key)
	s := &c.shards[h%numShards]
	slot := &s.door[(h/numShards)%doorSlots]
	fp := uint32(h>>32) | 1 // never the empty mark
	s.mu.Lock()
	defer s.mu.Unlock()
	el, resident := s.items[key]
	if resident {
		s.remove(el)
	} else if *slot != fp {
		*slot = fp
		return
	} else {
		*slot = 0
	}
	en := &entry{
		key:  key,
		val:  bytes.Clone(val),
		size: int64(len(key)+len(val)) + entryOverhead,
	}
	if c.ttl > 0 {
		en.expires = c.now().Add(c.ttl)
	}
	s.items[key] = s.ll.PushFront(en)
	s.bytes += en.size
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		s.remove(s.ll.Back())
	}
}

// remove unlinks an element; the caller holds the shard lock.
func (s *shard) remove(el *list.Element) {
	en := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.items, en.key)
	s.bytes -= en.size
}

// Len reports the number of live entries across all shards (expired
// entries that have not been touched still count until evicted).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes reports the total charged size of all live entries.
func (c *Cache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
