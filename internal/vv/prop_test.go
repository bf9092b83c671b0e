package vv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
)

// ref is the map a Vector is checked against: absent and zero counters alike
// read as 0.
type ref map[ids.ReplicaID]uint64

// live returns r's replicas with a positive counter, in order.
func (r ref) live() []ids.ReplicaID {
	var rs []ids.ReplicaID
	for id, n := range r {
		if n > 0 {
			rs = append(rs, id)
		}
	}
	slices.Sort(rs)
	return rs
}

func (r ref) compare(w ref) Order {
	rGreater, wGreater := false, false
	for _, m := range []ref{r, w} {
		for id := range m {
			rGreater = rGreater || r[id] > w[id]
			wGreater = wGreater || r[id] < w[id]
		}
	}
	switch {
	case rGreater && wGreater:
		return Concurrent
	case rGreater:
		return Dominates
	case wGreater:
		return Dominated
	}
	return Equal
}

func (r ref) String() string {
	parts := []string{}
	for _, id := range r.live() {
		parts = append(parts, fmt.Sprintf("%d:%d", id, r[id]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// encode is the canonical encoding; with zeros, zero counters are written too.
func (r ref) encode(zeros bool) []byte {
	var rs []ids.ReplicaID
	for id := range r {
		if zeros || r[id] > 0 {
			rs = append(rs, id)
		}
	}
	slices.Sort(rs)
	b := binary.BigEndian.AppendUint32(nil, uint32(len(rs)))
	for _, id := range rs {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
		b = binary.BigEndian.AppendUint64(b, r[id])
	}
	return b
}

// randRef draws 0–64 replicas, some with zero counters, from ids below span
// starting at base.
func randRef(rng *rand.Rand, base, span uint32) ref {
	r := ref{}
	for i := rng.Intn(65); i > 0; i-- {
		var n uint64
		switch rng.Intn(4) {
		case 0:
		case 1:
			n = rng.Uint64()
		default:
			n = uint64(1 + rng.Intn(5))
		}
		r[ids.ReplicaID(base+uint32(rng.Int63n(int64(span))))] = n
	}
	return r
}

// checkAgrees fails unless v holds exactly r's positive counters, sorted.
func checkAgrees(t *testing.T, what string, v Vector, r ref) {
	t.Helper()
	rs := r.live()
	if v.Len() != len(rs) {
		t.Fatalf("%s: %v has %d entries, reference %v has %d", what, v, v.Len(), r, len(rs))
	}
	for i, e := range v.e {
		if e.r != rs[i] || e.n != r[e.r] {
			t.Fatalf("%s: entry %d of %v is %d:%d, reference %v", what, i, v, e.r, e.n, r)
		}
	}
}

// TestAgreesWithMapReference runs every operation on seeded vectors of 0–64
// entries, with disjoint, interleaved and wide replica ids and zero counters,
// against the map it models, and checks that no operation changes an operand.
func TestAgreesWithMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		var ra, rb ref
		switch i % 3 {
		case 0: // interleaved
			ra, rb = randRef(rng, 0, 96), randRef(rng, 0, 96)
		case 1: // disjoint
			ra, rb = randRef(rng, 0, 80), randRef(rng, 1000, 80)
		default: // sparse over the whole id space
			ra, rb = randRef(rng, 0, 1<<32-1), randRef(rng, 0, 1<<32-1)
		}
		if i%7 == 0 {
			rb = ref{}
			for id, n := range ra {
				rb[id] = n
			}
		}
		a, b := Of(ra), Of(rb)
		// An operand built by appending has spare capacity an in-place
		// Bump or Merge could write into.
		a.e = append(make([]entry, 0, len(a.e)+8), a.e...)
		encA, encB := a.AppendBinary(nil), b.AppendBinary(nil)
		checkAgrees(t, "Of", a, ra)

		if got, want := a.Compare(b), ra.compare(rb); got != want {
			t.Fatalf("%v.Compare(%v) = %s, want %s", a, b, got, want)
		}
		o := ra.compare(rb)
		if a.Equal(b) != (o == Equal) || a.DominatesOrEqual(b) != (o == Equal || o == Dominates) {
			t.Fatalf("Equal/DominatesOrEqual of %v and %v disagree with %s", a, b, o)
		}
		rm := ref{}
		for _, r := range []ref{ra, rb} {
			for id, n := range r {
				rm[id] = max(rm[id], n)
			}
		}
		checkAgrees(t, "Merge", Merge(a, b), rm)

		var total uint64
		for id, n := range ra {
			total += n
			if a.Counter(id) != n {
				t.Fatalf("%v.Counter(%d) = %d, want %d", a, id, a.Counter(id), n)
			}
		}
		if a.Total() != total {
			t.Fatalf("%v.Total() = %d, want %d", a, a.Total(), total)
		}
		if a.String() != ra.String() {
			t.Fatalf("String %q, want %q", a, ra)
		}

		// Bumps of one operand, of a present replica and of two absent ones,
		// must not see each other.
		present, absent := ids.ReplicaID(rng.Intn(96)), ids.ReplicaID(rng.Uint32())
		if rs := ra.live(); len(rs) > 0 {
			present = rs[rng.Intn(len(rs))]
		}
		for ra[absent] > 0 || ra[absent+1] > 0 || absent+1 == 0 {
			absent++
		}
		b1, b2, b3 := a.Bump(present), a.Bump(absent), a.Bump(absent+1)
		for _, c := range []struct {
			v  Vector
			id ids.ReplicaID
		}{{b1, present}, {b2, absent}, {b3, absent + 1}} {
			rr := ref{}
			for id, n := range ra {
				rr[id] = n
			}
			rr[c.id]++
			checkAgrees(t, fmt.Sprintf("Bump(%d)", c.id), c.v, rr)
		}

		if !bytes.Equal(encA, ra.encode(false)) {
			t.Fatalf("AppendBinary(%v) = %x, want %x", a, encA, ra.encode(false))
		}
		for _, zeros := range []bool{false, true} {
			enc := ra.encode(zeros)
			dec, n, err := DecodeFrom(enc)
			if err != nil || n != len(enc) {
				t.Fatalf("DecodeFrom(%x) = %v, %d, %v", enc, dec, n, err)
			}
			checkAgrees(t, "DecodeFrom", dec, ra)
			if dec.Len() == 0 && dec.e != nil {
				t.Fatalf("DecodeFrom(%x) is empty but not the zero value", enc)
			}
		}

		if !bytes.Equal(a.AppendBinary(nil), encA) || !bytes.Equal(b.AppendBinary(nil), encB) {
			t.Fatalf("an operation changed an operand: %v %v", a, b)
		}
	}
}
