package memo

import "testing"

func k(b byte) Key {
	var key Key
	key[0] = b
	return key
}

func TestProbeInsert(t *testing.T) {
	c := NewCache(1000)
	if _, ok := c.Probe(k(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	if ev := c.Insert(k(1), "a", 100); ev != 0 {
		t.Fatalf("insert into empty cache evicted %d", ev)
	}
	got, ok := c.Probe(k(1))
	if !ok || got.(string) != "a" {
		t.Fatalf("Probe = %v, %v; want a, true", got, ok)
	}
	if c.Len() != 1 || c.Bytes() != 100 {
		t.Fatalf("Len=%d Bytes=%d; want 1, 100", c.Len(), c.Bytes())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewCache(300)
	c.Insert(k(1), 1, 100)
	c.Insert(k(2), 2, 100)
	c.Insert(k(3), 3, 100)
	// Touch 1 so 2 is now least recently used.
	c.Probe(k(1))
	if ev := c.Insert(k(4), 4, 100); ev != 1 {
		t.Fatalf("evicted %d entries; want 1", ev)
	}
	if _, ok := c.Probe(k(2)); ok {
		t.Fatal("LRU victim 2 survived")
	}
	for _, key := range []Key{k(1), k(3), k(4)} {
		if _, ok := c.Probe(key); !ok {
			t.Fatalf("entry %v wrongly evicted", key)
		}
	}
}

func TestEvictMultiple(t *testing.T) {
	c := NewCache(300)
	c.Insert(k(1), 1, 100)
	c.Insert(k(2), 2, 100)
	c.Insert(k(3), 3, 100)
	// 250 new bytes leave room for only the new entry: all three go.
	if ev := c.Insert(k(4), 4, 250); ev != 3 {
		t.Fatalf("evicted %d entries; want 3", ev)
	}
	if c.Len() != 1 || c.Bytes() != 250 {
		t.Fatalf("Len=%d Bytes=%d; want 1, 250", c.Len(), c.Bytes())
	}
}

func TestOversizedInsertSkipped(t *testing.T) {
	c := NewCache(100)
	c.Insert(k(1), 1, 50)
	if ev := c.Insert(k(2), 2, 200); ev != 0 {
		t.Fatalf("oversized insert evicted %d", ev)
	}
	if _, ok := c.Probe(k(2)); ok {
		t.Fatal("oversized entry was stored")
	}
	if _, ok := c.Probe(k(1)); !ok {
		t.Fatal("existing entry lost to a rejected oversized insert")
	}
}

func TestReplaceRefreshes(t *testing.T) {
	c := NewCache(250)
	c.Insert(k(1), "old", 100)
	c.Insert(k(2), 2, 100)
	c.Insert(k(1), "new", 50) // replace + touch: 2 is now LRU
	if got, _ := c.Probe(k(1)); got.(string) != "new" {
		t.Fatalf("replace kept %v", got)
	}
	if c.Bytes() != 150 {
		t.Fatalf("Bytes=%d after replace; want 150", c.Bytes())
	}
	c.Probe(k(1)) // touch 1 again
	if ev := c.Insert(k(3), 3, 150); ev != 1 {
		t.Fatalf("evicted %d; want 1", ev)
	}
	if _, ok := c.Probe(k(2)); ok {
		t.Fatal("expected 2 to be the eviction victim")
	}
}

func TestReset(t *testing.T) {
	c := NewCache(1000)
	c.Insert(k(1), 1, 100)
	c.Insert(k(2), 2, 100)
	c.Reset()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Reset: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	if _, ok := c.Probe(k(1)); ok {
		t.Fatal("Reset left an entry probeable")
	}
	// The cache must remain usable after Reset.
	c.Insert(k(3), 3, 100)
	if _, ok := c.Probe(k(3)); !ok {
		t.Fatal("cache unusable after Reset")
	}
}

func TestUnboundedCache(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 50; i++ {
		if ev := c.Insert(k(byte(i)), i, 1<<20); ev != 0 {
			t.Fatalf("unbounded cache evicted %d", ev)
		}
	}
	if c.Len() != 50 {
		t.Fatalf("Len=%d; want 50", c.Len())
	}
}
