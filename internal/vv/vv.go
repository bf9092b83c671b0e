// Package vv implements version vectors as introduced by Parker et al.,
// "Detection of Mutual Inconsistency in Distributed Systems" (IEEE TSE
// 1983), which Ficus uses to detect concurrent unsynchronized updates to
// file replicas (paper §2.6, §3.1).
//
// A version vector associated with a file replica maps each replica id to
// the number of updates that replica has originated for the file.  Two
// replica states are comparable when one vector dominates the other
// componentwise; otherwise the replicas were updated concurrently while not
// communicating and are in conflict.
//
// A Vector is an immutable value: Bump and Merge return a new vector and
// leave their operands as they were, so a vector may be shared, stored and
// handed on with no copy.
package vv

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/ids"
	"repro/internal/invariant"
)

// Order is the result of comparing two version vectors.
type Order int

// Comparison outcomes.  Concurrent means neither vector dominates: a
// conflicting, unsynchronized update pair has been detected.
const (
	Equal Order = iota
	Dominates
	Dominated
	Concurrent
)

// String names the order for logs and conflict reports.
func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Dominates:
		return "dominates"
	case Dominated:
		return "dominated"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// entry is one replica's update counter.
type entry struct {
	r ids.ReplicaID
	n uint64
}

// Vector is a version vector.  The zero value is the empty vector, which is
// Dominated by any vector with a positive counter.  Its entries are sorted by
// replica id and hold no zero counter, so equal vectors hold equal entries;
// no method writes into them once the vector is built.
type Vector struct {
	e []entry
}

// Of returns the vector holding m's counters; zero counters are dropped.
func Of(m map[ids.ReplicaID]uint64) Vector {
	var v Vector
	for r, n := range m {
		if n > 0 {
			v.e = append(v.e, entry{r, n})
		}
	}
	slices.SortFunc(v.e, func(a, b entry) int { return cmp.Compare(a.r, b.r) })
	return v
}

// Len returns the number of replicas with a positive counter.
func (v Vector) Len() int { return len(v.e) }

// search returns the index of r's entry, or where it would be inserted, and
// whether r has one.
func (v Vector) search(r ids.ReplicaID) (int, bool) {
	return slices.BinarySearchFunc(v.e, r, func(e entry, r ids.ReplicaID) int { return cmp.Compare(e.r, r) })
}

// Counter returns the update counter for one replica (0 when absent).
func (v Vector) Counter(r ids.ReplicaID) uint64 {
	if i, ok := v.search(r); ok {
		return v.e[i].n
	}
	return 0
}

// Bump returns v with one more update originated by replica r.
func (v Vector) Bump(r ids.ReplicaID) Vector {
	i, ok := v.search(r)
	e := make([]entry, len(v.e), len(v.e)+1)
	copy(e, v.e)
	if ok {
		e[i].n++
		return Vector{e}
	}
	return Vector{slices.Insert(e, i, entry{r, 1})}
}

// Compare determines the relationship of v to w.  With FICUS_INVARIANTS=1
// the result is cross-checked against the mirrored comparison: dominance
// must be antisymmetric or conflict detection is meaningless.
func (v Vector) Compare(w Vector) Order {
	o := v.compare(w)
	if invariant.Enabled() {
		m := w.compare(v)
		invariant.Checkf(m == o.mirror(),
			"vv: Compare not antisymmetric: %s vs %s gave %s, mirror gave %s", v, w, o, m)
	}
	return o
}

// mirror maps an Order to the result the swapped comparison must produce.
func (o Order) mirror() Order {
	switch o {
	case Dominates:
		return Dominated
	case Dominated:
		return Dominates
	default:
		return o
	}
}

// compare walks both sorted entry lists once.
func (v Vector) compare(w Vector) Order {
	vGreater, wGreater := false, false
	i, j := 0, 0
	for i < len(v.e) && j < len(w.e) {
		a, b := v.e[i], w.e[j]
		switch {
		case a.r < b.r:
			vGreater = true
			i++
		case a.r > b.r:
			wGreater = true
			j++
		default:
			vGreater = vGreater || a.n > b.n
			wGreater = wGreater || a.n < b.n
			i++
			j++
		}
	}
	vGreater = vGreater || i < len(v.e)
	wGreater = wGreater || j < len(w.e)
	switch {
	case vGreater && wGreater:
		return Concurrent
	case vGreater:
		return Dominates
	case wGreater:
		return Dominated
	default:
		return Equal
	}
}

// DominatesOrEqual reports whether every counter in v is at least the
// corresponding counter in w.
func (v Vector) DominatesOrEqual(w Vector) bool {
	o := v.Compare(w)
	return o == Dominates || o == Equal
}

// Merge returns the componentwise maximum of v and w: the least vector that
// dominates both.  Reconciliation installs the merged vector after manual or
// automatic conflict resolution so the resolution dominates both inputs.
func Merge(v, w Vector) Vector {
	m := make([]entry, 0, len(v.e)+len(w.e))
	i, j := 0, 0
	for i < len(v.e) && j < len(w.e) {
		a, b := v.e[i], w.e[j]
		switch {
		case a.r < b.r:
			m = append(m, a)
			i++
		case a.r > b.r:
			m = append(m, b)
			j++
		default:
			m = append(m, entry{a.r, max(a.n, b.n)})
			i++
			j++
		}
	}
	m = append(m, v.e[i:]...)
	return Vector{append(m, w.e[j:]...)}
}

// Equal reports componentwise equality, treating absent counters as zero.
func (v Vector) Equal(w Vector) bool { return v.Compare(w) == Equal }

// Total returns the sum of all counters: the total number of updates the
// replica has seen.  Used by the logical layer's default "select the most
// recent copy available" policy as a tiebreaker among comparable replicas.
func (v Vector) Total() uint64 {
	var t uint64
	for _, e := range v.e {
		t += e.n
	}
	return t
}

// String renders the vector as {r1:n1 r2:n2 ...} in replica order.
func (v Vector) String() string {
	b := []byte{'{'}
	for i, e := range v.e {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(e.r), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, e.n, 10)
	}
	return string(append(b, '}'))
}
