// Package resultcache is a sharded, content-addressed LRU cache of
// serialized simulation results: the memory tier of internal/resultstore.
//
// The serving path treats simulation as an expensive pure function of a
// request hash (see the request types in the root package): identical hashes
// mean identical bytes, so a cache in front of the simulator is correct by
// construction. Keys are spread over independently locked shards so hot
// lookups do not serialize. Coalescing concurrent misses onto one
// computation is the job of the tier chain (resultstore.TierChain), not of
// this cache.
package resultcache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// nShards is the fixed shard count; a power of two so the key hash maps to a
// shard with a mask. 16 is plenty for the per-core HTTP handler counts a
// single process sees.
const nShards = 16

// Cache is the sharded LRU. Create with New; a Cache must not be copied.
type Cache struct {
	shards [nShards]shard
	seed   maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64
}

// shard is one lock's worth of LRU state.
type shard struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *entry
	idx map[string]*list.Element
}

type entry struct {
	key string
	val []byte
}

// New builds a cache holding up to capacity entries (minimum nShards, so
// every shard holds at least one).
func New(capacity int) *Cache {
	if capacity < nShards {
		capacity = nShards
	}
	c := &Cache{seed: maphash.MakeSeed()}
	per := capacity / nShards
	extra := capacity % nShards
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		if i < extra {
			s.cap++
		}
		s.lru = list.New()
		s.idx = map[string]*list.Element{}
	}
	return c
}

// shardFor maps a key to its shard.
func (c *Cache) shardFor(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&(nShards-1)]
}

// Get returns the cached bytes for key, if present. The returned slice is
// shared and must not be modified.
func (c *Cache) Get(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	var val []byte
	el, ok := s.idx[key]
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: put's refresh branch writes entry.val in
		// place.
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// Peek is Get without the hit/miss counters. Tier compositions (see
// internal/resultstore) use it for uncounted re-probes inside a flight whose
// triggering lookup was already counted.
func (c *Cache) Peek(key string) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.idx[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	return nil, false
}

// Put inserts (or refreshes) a key, evicting from the tail of the key's
// shard when over capacity.
func (c *Cache) Put(key string, val []byte) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.idx[key]; ok {
		old := el.Value.(*entry)
		c.bytes.Add(int64(len(val) - len(old.val)))
		old.val = val
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.idx[key] = s.lru.PushFront(&entry{key: key, val: val})
	c.bytes.Add(int64(len(key) + len(val)))
	var evicted int64
	for s.lru.Len() > s.cap {
		el := s.lru.Back()
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.idx, e.key)
		c.bytes.Add(-int64(len(e.key) + len(e.val)))
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Keys returns the cached keys, in no particular order. Shards are locked
// one at a time, so the snapshot is only per-shard consistent — fine for
// its use (corpus manifest export), where a key that races in or out is a
// key the fetcher tolerates missing anyway.
func (c *Cache) Keys() []string {
	out := make([]string, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry).key)
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get lookups.
	Hits, Misses int64
	// Evictions counts LRU evictions.
	Evictions int64
	// Entries and Bytes describe current occupancy. Bytes counts key and
	// value bytes per entry, so it is comparable to a disk tier's
	// per-entry-file accounting.
	Entries int
	Bytes   int64
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Bytes:     c.bytes.Load(),
	}
}
