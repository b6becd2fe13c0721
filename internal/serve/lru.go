package serve

import "sync"

// lruEntry is one node of the cache's intrusive recency list.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// LRU is a bounded, mutex-guarded least-recently-used cache. The zero value is unusable; construct with NewLRU. It backs
// the master's result cache (DESIGN.md §12), which needs a hard bound (a
// serving tier must not grow with the query universe) and explicit
// invalidation on layout or placement change.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*lruEntry[K, V]
	head     *lruEntry[K, V] // most recently used
	tail     *lruEntry[K, V] // eviction candidate
}

// NewLRU returns a cache bounded to capacity entries (capacity < 1 pins the
// bound to 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		capacity: capacity,
		entries:  make(map[K]*lruEntry[K, V], capacity),
	}
}

// unlink removes e from the recency list.
func (c *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (c *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	if len(c.entries) >= c.capacity {
		ev := c.tail
		c.unlink(ev)
		delete(c.entries, ev.key)
	}
	e := &lruEntry[K, V]{key: key, val: val}
	c.entries[key] = e
	c.pushFront(e)
}

// Invalidate empties the cache (layout or placement changed: every cached
// result is stale).
func (c *LRU[K, V]) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[K]*lruEntry[K, V], c.capacity)
	c.head, c.tail = nil, nil
}

// Sweep visits every entry (in no particular order) and lets fn decide its
// fate: return (v, true) to keep the entry with value v (possibly rewritten
// in place), or (_, false) to drop it. Recency order is preserved for the
// survivors. It backs the master's
// per-partition cache invalidation at migration cutover: entries touching
// only renamed partitions are rewritten, entries touching the rebuilt region
// are dropped, and everything else survives — wholesale Invalidate would
// throw the whole working set away for a localized layout change.
func (c *LRU[K, V]) Sweep(fn func(K, V) (V, bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.head; e != nil; {
		next := e.next
		if v, keep := fn(e.key, e.val); keep {
			e.val = v
		} else {
			c.unlink(e)
			delete(c.entries, e.key)
		}
		e = next
	}
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
