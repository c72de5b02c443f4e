package memo

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2) // overwrite
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("overwrite lost: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a") // refresh a: b is now the oldest
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
}

func TestReset(t *testing.T) {
	c := New(4)
	c.Put("a", 1)
	c.Get("a")
	c.Get("x")
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("stats after Reset = %d/%d", h, m)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
	c.Reset()
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

// TestConcurrentEvictionAndReset races Put/Get-driven LRU eviction
// against ResetCache-style Reset and Snapshot calls on a tiny cache, the
// exact interleaving a server sees when a benchmark resets the shared
// cache mid-traffic. Run under -race -cpu 1,4 in CI; the assertions are
// only sanity bounds — the race detector is the real check.
func TestConcurrentEvictionAndReset(t *testing.T) {
	c := New(4) // tiny: every Put beyond 4 live keys evicts
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%d", (g*31+i)%16)
				c.Put(k, i)
				c.Get(k)
				c.Get(fmt.Sprintf("k%d", i%16))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.Reset()
			s := c.Snapshot()
			if s.Entries > 4 {
				t.Errorf("capacity exceeded after Reset: %d", s.Entries)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			c.Snapshot()
			c.Len()
			c.Stats()
		}
	}()
	// Let the mutators run against the resets, then stop them.
	for i := 0; i < 2000; i++ {
		c.Get("k0")
	}
	close(stop)
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

// TestFingerprinterFraming checks that the length-prefixed framing
// prevents concatenation aliasing and that namespaces separate key spaces.
func TestFingerprinterFraming(t *testing.T) {
	a := NewFingerprinter("x").Str("ab").Str("c").Key()
	b := NewFingerprinter("x").Str("a").Str("bc").Key()
	if a == b {
		t.Fatal("framing failed: ab+c aliases a+bc")
	}
	if NewFingerprinter("x").Str("v").Key() == NewFingerprinter("y").Str("v").Key() {
		t.Fatal("namespaces do not separate")
	}
	if NewFingerprinter("x").Int(1).Key() == NewFingerprinter("x").Bool(true).Key() {
		// Bool(true) is Int(1) by construction — document that they do
		// alias within one namespace, so mixed-type keys must order fields
		// consistently.
		t.Log("Int(1) and Bool(true) share an encoding (by design)")
	}
	if NewFingerprinter("x").Ints([]int{1, 2}).Key() == NewFingerprinter("x").Ints([]int{1}).Ints([]int{2}).Key() {
		t.Fatal("Ints framing failed: [1,2] aliases [1]+[2]")
	}
}

func TestFingerprinterDeterministic(t *testing.T) {
	mk := func() string {
		return NewFingerprinter("t").Str("s").Int(-7).Ints([]int{3, 1, 4}).Bool(true).Key()
	}
	if mk() != mk() {
		t.Fatal("fingerprint not deterministic")
	}
	if len(mk()) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(mk()))
	}
}
