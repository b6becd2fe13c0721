package serve

import (
	"fmt"
	"testing"
)

func TestLRUSweepRewritesAndDrops(t *testing.T) {
	c := NewLRU[string, int](8)
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	// Rewrite even values in place, drop odd ones.
	c.Sweep(func(k string, v int) (int, bool) {
		if v%2 == 1 {
			return 0, false
		}
		return v * 10, true
	})
	if got := c.Len(); got != 3 {
		t.Fatalf("len after sweep = %d, want 3", got)
	}
	for i := 0; i < 6; i++ {
		v, ok := c.Get(fmt.Sprintf("k%d", i))
		if i%2 == 1 {
			if ok {
				t.Fatalf("dropped entry k%d still cached", i)
			}
			continue
		}
		if !ok || v != i*10 {
			t.Fatalf("k%d = %d,%v, want %d,true", i, v, ok, i*10)
		}
	}
}

func TestLRUSweepPreservesRecencyAndStats(t *testing.T) {
	c := NewLRU[int, int](3)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Put(3, 3)
	c.Get(1) // recency now 1,3,2 (most→least)
	h0, m0 := c.stats()

	c.Sweep(func(k, v int) (int, bool) { return v, true })

	if h, m := c.stats(); h != h0 || m != m0 {
		t.Fatalf("sweep changed stats: %d/%d -> %d/%d", h0, m0, h, m)
	}
	// A new insert must evict the least recently used survivor (2).
	c.Put(4, 4)
	if _, ok := c.Get(2); ok {
		t.Fatal("sweep lost the recency order: 2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d wrongly evicted", k)
		}
	}
}

func TestLRUSweepAll(t *testing.T) {
	c := NewLRU[int, int](4)
	for i := 0; i < 4; i++ {
		c.Put(i, i)
	}
	c.Sweep(func(k, v int) (int, bool) { return 0, false })
	if got := c.Len(); got != 0 {
		t.Fatalf("len after drop-all sweep = %d, want 0", got)
	}
	// The empty cache still works.
	c.Put(9, 9)
	if v, ok := c.Get(9); !ok || v != 9 {
		t.Fatal("cache broken after drop-all sweep")
	}
}
