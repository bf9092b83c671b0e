// Package lru is the one least-recently-used map of the repository: the UFS
// buffer, inode and name caches, the NFS client's attribute and lookup caches,
// the physical layer's container and directory caches and the logical layer's
// resolution cache are all instances of it (DESIGN.md §16).  It holds at most a
// fixed number of entries and evicts from the cold end; it does no locking and
// keeps no counters — every caller already has a lock and its own idea of
// what a hit is.
package lru

import "container/list"

// Cache maps K to V, keeping the capacity most recently used entries.
type Cache[K comparable, V any] struct {
	capacity int
	order    *list.List // of *entry[K, V], front = most recently used
	byKey    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, order: list.New(), byKey: make(map[K]*list.Element)}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*entry[K, V]).val, true
}

// Put stores v under k, replacing any previous value, marks it most recently
// used, and evicts least recently used entries beyond the capacity.
func (c *Cache[K, V]) Put(k K, v V) {
	if e, ok := c.byKey[k]; ok {
		e.Value.(*entry[K, V]).val = v
		c.order.MoveToFront(e)
		return
	}
	c.byKey[k] = c.order.PushFront(&entry[K, V]{k, v})
	for c.order.Len() > c.capacity {
		c.remove(c.order.Back())
	}
}

// Drop removes k if present.
func (c *Cache[K, V]) Drop(k K) {
	if e, ok := c.byKey[k]; ok {
		c.remove(e)
	}
}

// DropFunc removes every entry for which drop returns true, visiting entries
// from most to least recently used (never in map order, so a run is
// deterministic).
func (c *Cache[K, V]) DropFunc(drop func(K, V) bool) {
	for e := c.order.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*entry[K, V]); drop(ent.key, ent.val) {
			c.remove(e)
		}
		e = next
	}
}

// Flush removes every entry.
func (c *Cache[K, V]) Flush() {
	c.order.Init()
	c.byKey = make(map[K]*list.Element)
}

func (c *Cache[K, V]) remove(e *list.Element) {
	c.order.Remove(e)
	delete(c.byKey, e.Value.(*entry[K, V]).key)
}
