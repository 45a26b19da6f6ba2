package resultcache

import (
	"fmt"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len("a")+len("alpha")) {
		t.Errorf("stats = %+v", st)
	}
}

// storedBytes walks the shards and sums the actual stored sizes (key plus
// value), the quantity Stats().Bytes claims to track.
func storedBytes(c *Cache) int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			n += int64(len(e.key) + len(e.val))
		}
		s.mu.Unlock()
	}
	return n
}

func TestByteAccountingMatchesStoredSizes(t *testing.T) {
	c := New(2 * nShards)
	// Mixed key and value lengths, enough inserts to force evictions, plus
	// same-key refreshes that grow and shrink the value.
	for i := 0; i < 8*nShards; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%0*d", i%7, i)))
	}
	c.Put("key-0", []byte("grown-replacement-value"))
	c.Put("key-0", []byte("s"))
	st := c.Stats()
	if want := storedBytes(c); st.Bytes != want {
		t.Errorf("Stats().Bytes = %d, actual stored key+value bytes = %d", st.Bytes, want)
	}
	if st.Evictions == 0 {
		t.Error("test did not exercise eviction accounting")
	}
}

// shardKeys returns distinct keys that all map to the same shard of c.
func shardKeys(c *Cache, n int) []string {
	target := c.shardFor(fmt.Sprint("seed"))
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.shardFor(k) == target {
			out = append(out, k)
		}
	}
	return out
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 2 per shard; steer all keys onto one shard so eviction order
	// is fully observable.
	c := New(2 * nShards)
	k := shardKeys(c, 3)

	c.Put(k[0], []byte("0"))
	c.Put(k[1], []byte("1"))
	// Touch k0 so k1 becomes least-recent, then overflow the shard.
	if _, ok := c.Get(k[0]); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(k[2], []byte("2"))

	if _, ok := c.Peek(k[1]); ok {
		t.Error("least-recently-used key survived eviction")
	}
	for _, want := range []string{k[0], k[2]} {
		if _, ok := c.Peek(want); !ok {
			t.Errorf("recently-used key %s evicted", want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestEvictionBoundsOccupancy(t *testing.T) {
	const capacity = 2 * nShards
	c := New(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte("x"))
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if int(st.Evictions)+st.Entries != 10*capacity {
		t.Errorf("evictions(%d) + entries(%d) != inserts(%d)", st.Evictions, st.Entries, 10*capacity)
	}
	if want := storedBytes(c); st.Bytes != want {
		t.Errorf("bytes = %d, want %d (stored key+value bytes)", st.Bytes, want)
	}
}

func TestPutRefreshSameKey(t *testing.T) {
	c := New(64)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("longer-v2"))
	v, ok := c.Get("k")
	if !ok || string(v) != "longer-v2" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("k")+len("longer-v2")) || st.Evictions != 0 {
		t.Errorf("stats after refresh = %+v", st)
	}
}
