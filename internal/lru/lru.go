// Package lru is the one least-recently-used map of the repository: the UFS
// buffer, inode and name caches, the NFS client's attribute and lookup caches,
// the physical layer's container and directory caches and the logical layer's
// resolution cache are all instances of it (DESIGN.md §16).  It holds at most a
// fixed number of entries and evicts from the cold end; it does no locking and
// keeps no counters — every caller already has a lock and its own idea of
// what a hit is.
//
// The entries live in one slab, linked by index into a recency list; a slot
// that Drop or DropFunc frees goes on a free chain, and an eviction hands the
// victim's slot straight to the new entry, so a Put at capacity allocates
// nothing.
package lru

// Cache maps K to V, keeping the capacity most recently used entries.
type Cache[K comparable, V any] struct {
	capacity   int
	nodes      []node[K, V] // the slab; grows up to capacity
	byKey      map[K]int32  // key → its slot in nodes
	head, tail int32        // most and least recently used slots; none when the cache is empty
	free       int32        // first slot of the free chain, linked through next
}

const none = -1

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32 // neighbours in the recency list (or next free slot)
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, byKey: make(map[K]int32), head: none, tail: none, free: none}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	i, ok := c.byKey[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(i)
	return c.nodes[i].val, true
}

// Put stores v under k, replacing any previous value, marks it most recently
// used, and evicts the least recently used entry beyond the capacity.  It
// returns the value it displaced — the one k held, or the evicted entry's —
// so a caller that owns its values sees each one leave without a walk.
func (c *Cache[K, V]) Put(k K, v V) (old V, displaced bool) {
	if i, ok := c.byKey[k]; ok {
		old = c.nodes[i].val
		c.nodes[i].val = v
		c.moveToFront(i)
		return old, true
	}
	if c.capacity <= 0 {
		return old, false
	}
	var i int32
	switch {
	case c.free != none:
		i = c.free
		c.free = c.nodes[i].next
	case len(c.nodes) < c.capacity:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node[K, V]{})
	default: // full: the victim's slot is the new entry's
		i = c.tail
		c.unlink(i)
		delete(c.byKey, c.nodes[i].key)
		old, displaced = c.nodes[i].val, true
	}
	c.nodes[i].key, c.nodes[i].val = k, v
	c.byKey[k] = i
	c.pushFront(i)
	return old, displaced
}

// Drop removes k if present and returns the value it held.
func (c *Cache[K, V]) Drop(k K) (old V, dropped bool) {
	i, ok := c.byKey[k]
	if !ok {
		return old, false
	}
	old = c.nodes[i].val
	c.remove(i)
	return old, true
}

// DropFunc removes every entry for which drop returns true, visiting entries
// from most to least recently used (never in map order, so a run is
// deterministic).
func (c *Cache[K, V]) DropFunc(drop func(K, V) bool) {
	for i := c.head; i != none; {
		next := c.nodes[i].next
		if drop(c.nodes[i].key, c.nodes[i].val) {
			c.remove(i)
		}
		i = next
	}
}

// Flush removes every entry.
func (c *Cache[K, V]) Flush() {
	clear(c.nodes) // what the slots held is garbage now
	c.nodes = c.nodes[:0]
	clear(c.byKey)
	c.head, c.tail, c.free = none, none, none
}

// remove unlinks slot i, forgets its key and puts it on the free chain.
func (c *Cache[K, V]) remove(i int32) {
	c.unlink(i)
	delete(c.byKey, c.nodes[i].key)
	c.nodes[i] = node[K, V]{next: c.free}
	c.free = i
}

func (c *Cache[K, V]) moveToFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

func (c *Cache[K, V]) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = none, c.head
	if c.head != none {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *Cache[K, V]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != none {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != none {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}
