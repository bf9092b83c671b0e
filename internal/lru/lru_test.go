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

// model is the reference the differential test compares against: a slice of
// entries, most recently used first.
type model struct {
	capacity int
	ents     [][2]int
}

func (m *model) find(k int) int {
	for i, e := range m.ents {
		if e[0] == k {
			return i
		}
	}
	return -1
}

func (m *model) remove(i int) { m.ents = append(m.ents[:i:i], m.ents[i+1:]...) }

func (m *model) touch(k, v int) {
	m.ents = append([][2]int{{k, v}}, m.ents...)
	if len(m.ents) > m.capacity {
		m.ents = m.ents[:m.capacity]
	}
}

func TestDifferentialAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const capacity, keySpace = 8, 24
	c := New[int, int](capacity)
	m := &model{capacity: capacity}
	for step := 0; step < 10000; step++ {
		k := rng.Intn(keySpace)
		switch op := rng.Intn(100); {
		case op < 45:
			got, ok := c.Get(k)
			i := m.find(k)
			if ok != (i >= 0) || (ok && got != m.ents[i][1]) {
				t.Fatalf("step %d: Get(%d) = %d, %v; model index %d", step, k, got, ok, i)
			}
			if i >= 0 {
				v := m.ents[i][1]
				m.remove(i)
				m.touch(k, v)
			}
		case op < 85:
			c.Put(k, step)
			if i := m.find(k); i >= 0 {
				m.remove(i)
			}
			m.touch(k, step)
		case op < 93:
			c.Drop(k)
			if i := m.find(k); i >= 0 {
				m.remove(i)
			}
		case op < 99:
			mod := rng.Intn(4) + 2
			c.DropFunc(func(k, _ int) bool { return k%mod == 0 })
			kept := m.ents[:0:0]
			for _, e := range m.ents {
				if e[0]%mod != 0 {
					kept = append(kept, e)
				}
			}
			m.ents = kept
		default:
			c.Flush()
			m.ents = nil
		}
		var want []int
		for _, e := range m.ents {
			want = append(want, e[0])
		}
		if got := keys(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: recency order %v, model %v", step, got, want)
		}
	}
}
