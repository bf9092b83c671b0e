package lru

import (
	"math/rand"
	"reflect"
	"testing"
)

// keys lists the cache's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	c.DropFunc(func(k K, _ V) bool {
		out = append(out, k)
		return false
	})
	return out
}

func wantKeys(t *testing.T, c *Cache[int, string], want ...int) {
	t.Helper()
	if got := keys(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys in recency order = %v, want %v", got, want)
	}
}

func TestEvictionIsLeastRecentlyUsed(t *testing.T) {
	c := New[int, string](3)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	wantKeys(t, c, 3, 2, 1)

	// Get touches: 1 is now the warmest, so 2 is the one evicted.
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	c.Put(4, "d")
	wantKeys(t, c, 4, 1, 3)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 survived eviction")
	}

	// A replacing Put touches too, and replaces the value without growing.
	c.Put(3, "C")
	wantKeys(t, c, 3, 4, 1)
	c.Put(5, "e")
	wantKeys(t, c, 5, 3, 4)
	if v, _ := c.Get(3); v != "C" {
		t.Fatalf("replaced value = %q", v)
	}

	// A missing Get touches nothing.
	if _, ok := c.Get(99); ok {
		t.Fatal("Get of an absent key hit")
	}
	wantKeys(t, c, 3, 5, 4)
}

func TestCapacityBound(t *testing.T) {
	c := New[int, string](4)
	for i := 0; i < 100; i++ {
		c.Put(i, "")
		if n := len(keys(c)); n > 4 {
			t.Fatalf("after %d puts the cache holds %d entries", i+1, n)
		}
	}
	wantKeys(t, c, 99, 98, 97, 96)
}

func TestDropAndFlush(t *testing.T) {
	c := New[int, string](4)
	for i := 1; i <= 4; i++ {
		c.Put(i, "")
	}
	c.Drop(3)
	c.Drop(3) // absent: no-op
	c.Drop(42)
	wantKeys(t, c, 4, 2, 1)
	c.Put(5, "")
	wantKeys(t, c, 5, 4, 2, 1) // the dropped slot is free again: nothing evicted

	c.Flush()
	wantKeys(t, c)
	if _, ok := c.Get(5); ok {
		t.Fatal("Get hit after Flush")
	}
	c.Put(6, "")
	wantKeys(t, c, 6)
}

func TestDropFuncWhileWalking(t *testing.T) {
	fill := func() *Cache[int, string] {
		c := New[int, string](5)
		for i := 1; i <= 5; i++ {
			c.Put(i, "")
		}
		return c
	}
	for _, tc := range []struct {
		name string
		drop func(int) bool
		want []int
	}{
		{"front", func(k int) bool { return k == 5 }, []int{4, 3, 2, 1}},
		{"back", func(k int) bool { return k == 1 }, []int{5, 4, 3, 2}},
		{"middle pair", func(k int) bool { return k == 3 || k == 4 }, []int{5, 2, 1}},
		{"everything", func(int) bool { return true }, nil},
	} {
		c := fill()
		var visited []int
		c.DropFunc(func(k int, _ string) bool {
			visited = append(visited, k)
			return tc.drop(k)
		})
		if want := []int{5, 4, 3, 2, 1}; !reflect.DeepEqual(visited, want) {
			t.Fatalf("%s: visited %v, want recency order %v", tc.name, visited, want)
		}
		if got := keys(c); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: left %v, want %v", tc.name, got, tc.want)
		}
		for _, k := range visited {
			if _, ok := c.Get(k); ok == tc.drop(k) {
				t.Fatalf("%s: Get(%d) hit = %v after DropFunc", tc.name, k, ok)
			}
		}
	}
}

// recencyList is the reference the property test holds the cache to: the
// entries in a slice, most recently used first, and every operation the
// obvious walk over it.
type recencyList struct {
	capacity int
	ents     [][2]int // key, value
}

func (m *recencyList) find(k int) int {
	for i, e := range m.ents {
		if e[0] == k {
			return i
		}
	}
	return -1
}

// get answers k and, on a hit, moves it to the front.
func (m *recencyList) get(k int) (int, bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	e := m.ents[i]
	m.ents = append([][2]int{e}, append(m.ents[:i:i], m.ents[i+1:]...)...)
	return e[1], true
}

// put stores k at the front and returns the value it displaced — k's own or
// the evicted entry's — and the key it evicted, if any.
func (m *recencyList) put(k, v int) (old int, displaced bool, victim int, evicted bool) {
	old, displaced = m.drop(k)
	m.ents = append([][2]int{{k, v}}, m.ents...)
	if len(m.ents) <= m.capacity {
		return old, displaced, 0, false
	}
	last := m.ents[len(m.ents)-1]
	m.ents = m.ents[:len(m.ents)-1]
	return last[1], true, last[0], true
}

func (m *recencyList) drop(k int) (old int, dropped bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	old = m.ents[i][1]
	m.ents = append(m.ents[:i:i], m.ents[i+1:]...)
	return old, true
}

// TestDifferentialAgainstSliceModel runs random Get, Put, Drop, DropFunc and
// Flush sequences against the recency list and checks, after every step, the
// values answered, which keys are members, the victim of each eviction, the
// value each Put displaced and each Drop removed, the order DropFunc visits in
// and the recency order left behind.  Capacity 1
// exercises the slot an eviction hands straight to the new entry on every Put.
func TestDifferentialAgainstSliceModel(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(19))
		keySpace := 3 * capacity
		c := New[int, int](capacity)
		m := &recencyList{capacity: capacity}
		for step := 0; step < 10000; step++ {
			k := rng.Intn(keySpace)
			switch op := rng.Intn(100); {
			case op < 45:
				got, ok := c.Get(k)
				want, wantOK := m.get(k)
				if ok != wantOK || got != want {
					t.Fatalf("cap %d step %d: Get(%d) = %d, %v; model %d, %v", capacity, step, k, got, ok, want, wantOK)
				}
			case op < 85:
				before := keys(c)
				old, displaced := c.Put(k, step)
				wantOld, wantDisplaced, victim, evicted := m.put(k, step)
				var gone []int
				for _, b := range before {
					if _, ok := c.byKey[b]; !ok {
						gone = append(gone, b)
					}
				}
				if want := []int{victim}; evicted != (len(gone) > 0) || (evicted && !reflect.DeepEqual(gone, want)) {
					t.Fatalf("cap %d step %d: Put(%d) evicted %v; model evicted %d (%v)", capacity, step, k, gone, victim, evicted)
				}
				if old != wantOld || displaced != wantDisplaced {
					t.Fatalf("cap %d step %d: Put(%d) displaced %d, %v; model %d, %v", capacity, step, k, old, displaced, wantOld, wantDisplaced)
				}
			case op < 93:
				old, dropped := c.Drop(k)
				if wantOld, wantDropped := m.drop(k); old != wantOld || dropped != wantDropped {
					t.Fatalf("cap %d step %d: Drop(%d) = %d, %v; model %d, %v", capacity, step, k, old, dropped, wantOld, wantDropped)
				}
			case op < 99:
				mod := rng.Intn(4) + 2
				var visited, want []int
				c.DropFunc(func(k, _ int) bool { visited = append(visited, k); return k%mod == 0 })
				kept := m.ents[:0:0]
				for _, e := range m.ents {
					want = append(want, e[0])
					if e[0]%mod != 0 {
						kept = append(kept, e)
					}
				}
				m.ents = kept
				if !reflect.DeepEqual(visited, want) {
					t.Fatalf("cap %d step %d: DropFunc visited %v, model order %v", capacity, step, visited, want)
				}
			default:
				c.Flush()
				m.ents = nil
			}
			var want []int
			for _, e := range m.ents {
				want = append(want, e[0])
			}
			if got := keys(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d step %d: recency order %v, model %v", capacity, step, got, want)
			}
			for k := 0; k < keySpace; k++ {
				if _, ok := c.byKey[k]; ok != (m.find(k) >= 0) {
					t.Fatalf("cap %d step %d: key %d member %v, model %v", capacity, step, k, ok, !ok)
				}
			}
		}
	}
}

// TestPutAtCapacityAllocatesNothing pins the slab: once the cache is full, a
// Put of a new key takes the victim's slot, so it allocates nothing.
func TestPutAtCapacityAllocatesNothing(t *testing.T) {
	c := New[int, string](64)
	for i := 0; i < 64; i++ {
		c.Put(i, "")
	}
	next := 64
	if n := testing.AllocsPerRun(1000, func() {
		c.Put(next, "")
		next++
	}); n != 0 {
		t.Errorf("a Put at capacity allocates %v times, want 0", n)
	}
}
