package vv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func vec(pairs ...uint64) Vector {
	m := map[ids.ReplicaID]uint64{}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[ids.ReplicaID(pairs[i])] = pairs[i+1]
	}
	return Of(m)
}

func TestCompareTable(t *testing.T) {
	cases := []struct {
		name string
		a, b Vector
		want Order
	}{
		{"empty-empty", Vector{}, Vector{}, Equal},
		{"nil-empty", Vector{}, Vector{e: []entry{}}, Equal},
		{"equal", vec(1, 2, 2, 3), vec(1, 2, 2, 3), Equal},
		{"zero-counter-ignored", vec(1, 2), Of(map[ids.ReplicaID]uint64{1: 2, 9: 0}), Equal},
		{"dominates", vec(1, 3, 2, 3), vec(1, 2, 2, 3), Dominates},
		{"dominates-extra-replica", vec(1, 1, 2, 1), vec(1, 1), Dominates},
		{"dominated", vec(1, 2), vec(1, 2, 2, 1), Dominated},
		{"concurrent", vec(1, 2, 2, 1), vec(1, 1, 2, 2), Concurrent},
		{"concurrent-disjoint", vec(1, 1), vec(2, 1), Concurrent},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%s: %v.Compare(%v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	flip := map[Order]Order{Equal: Equal, Dominates: Dominated, Dominated: Dominates, Concurrent: Concurrent}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randVec(rng), randVec(rng)
		if got, want := b.Compare(a), flip[a.Compare(b)]; got != want {
			t.Fatalf("antisymmetry violated: a=%v b=%v: a.Compare(b)=%v b.Compare(a)=%v", a, b, a.Compare(b), got)
		}
	}
}

func randVec(rng *rand.Rand) Vector {
	m := map[ids.ReplicaID]uint64{}
	for r := 0; r < 4; r++ {
		m[ids.ReplicaID(r)] = uint64(rng.Intn(4))
	}
	return Of(m)
}

func TestBumpMakesDominating(t *testing.T) {
	before := vec(1, 1, 2, 5)
	v := before.Bump(3)
	if v.Compare(before) != Dominates {
		t.Fatalf("bumped vector %v does not dominate %v", v, before)
	}
	if before.Compare(v) != Dominated {
		t.Fatalf("original %v not dominated by %v", before, v)
	}
}

func TestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b, c := randVec(rng), randVec(rng), randVec(rng)
		m := Merge(a, b)
		if !m.DominatesOrEqual(a) || !m.DominatesOrEqual(b) {
			t.Fatalf("Merge(%v,%v)=%v does not dominate both", a, b, m)
		}
		// Commutative.
		if !Merge(a, b).Equal(Merge(b, a)) {
			t.Fatalf("merge not commutative for %v, %v", a, b)
		}
		// Associative.
		if !Merge(Merge(a, b), c).Equal(Merge(a, Merge(b, c))) {
			t.Fatalf("merge not associative for %v, %v, %v", a, b, c)
		}
		// Idempotent.
		if !Merge(a, a).Equal(a) {
			t.Fatalf("merge not idempotent for %v", a)
		}
		// Least upper bound: merge adds nothing beyond max of each counter.
		for _, e := range m.e {
			if max := maxU64(a.Counter(e.r), b.Counter(e.r)); e.n != max {
				t.Fatalf("Merge(%v,%v)[%d]=%d, want %d", a, b, e.r, e.n, max)
			}
		}
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestMergeDoesNotAliasInputs(t *testing.T) {
	a, b := vec(1, 1), vec(2, 1)
	Merge(a, b).Bump(1)
	if a.Counter(1) != 1 || b.Counter(1) != 0 {
		t.Fatal("Merge aliased its inputs")
	}
}

func TestBumpLeavesItsInput(t *testing.T) {
	a := vec(1, 1)
	if c := a.Bump(1); a.Counter(1) != 1 || c.Counter(1) != 2 {
		t.Fatal("Bump changed its input")
	}
	var zero Vector
	if c := zero.Bump(4); zero.Len() != 0 || c.Counter(4) != 1 {
		t.Fatal("Bump of the zero vector should leave it empty")
	}
}

func TestTotal(t *testing.T) {
	if got := vec(1, 2, 2, 3).Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := (Vector{}).Total(); got != 0 {
		t.Fatalf("empty Total = %d, want 0", got)
	}
}

func TestString(t *testing.T) {
	v := Of(map[ids.ReplicaID]uint64{3: 1, 1: 2, 9: 0})
	if got, want := v.String(), "{1:2 3:1}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Vector{}).String(); got != "{}" {
		t.Fatalf("empty String = %q, want {}", got)
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{Equal: "equal", Dominates: "dominates", Dominated: "dominated", Concurrent: "concurrent"} {
		if o.String() != want {
			t.Errorf("Order(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if Order(99).String() == "" {
		t.Error("unknown order should still render")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(counts []uint8) bool {
		m := map[ids.ReplicaID]uint64{}
		for i, n := range counts {
			if i >= 8 {
				break
			}
			m[ids.ReplicaID(i)] = uint64(n)
		}
		v := Of(m)
		b := v.AppendBinary(nil)
		got, n, err := DecodeFrom(b)
		return err == nil && n == len(b) && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecCanonical(t *testing.T) {
	a := Of(map[ids.ReplicaID]uint64{1: 2, 5: 9})
	b := Of(map[ids.ReplicaID]uint64{5: 9, 1: 2, 7: 0})
	ab, bb := a.AppendBinary(nil), b.AppendBinary(nil)
	if string(ab) != string(bb) {
		t.Fatalf("equal vectors encode differently: %x vs %x", ab, bb)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeFrom(nil); err == nil {
		t.Error("DecodeFrom(nil): expected error")
	}
	if _, _, err := DecodeFrom([]byte{0, 0, 0, 5}); err == nil {
		t.Error("short entry list: expected error")
	}
	// Non-canonical: replica ids out of order.
	bad := []byte{0, 0, 0, 2,
		0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
	}
	if _, _, err := DecodeFrom(bad); err == nil {
		t.Error("non-canonical order: expected error")
	}
	// A zero counter is dropped; a vector of none decodes to the zero value.
	zero := []byte{0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0}
	if v, n, err := DecodeFrom(zero); err != nil || n != len(zero) || v.e != nil {
		t.Errorf("zero counter: %v %d %v, want the zero vector", v, n, err)
	}
}

func TestDecodeFromConsumesExactly(t *testing.T) {
	v := vec(1, 1, 2, 2)
	b := append(v.AppendBinary(nil), 0xaa, 0xbb)
	got, n, err := DecodeFrom(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b)-2 {
		t.Fatalf("consumed %d, want %d", n, len(b)-2)
	}
	if !got.Equal(v) {
		t.Fatalf("decoded %v, want %v", got, v)
	}
}

func TestVersionVectorDetectsConcurrentUpdateScenario(t *testing.T) {
	// The paper's motivating scenario: two replicas of one file are updated
	// while partitioned; upon reconnecting, the version vectors must flag a
	// conflict rather than silently pick a winner.
	v := Vector{}.Bump(1) // initial update propagated everywhere
	a := v.Bump(1)        // partition: host 1 updates its replica
	b := v.Bump(2)        // ... while host 2 updates its replica
	if a.Compare(b) != Concurrent {
		t.Fatalf("partitioned updates not detected as concurrent: a=%v b=%v", a, b)
	}
	// After reconciliation installs a resolution, the merged+bumped vector
	// must dominate both histories.
	res := Merge(a, b).Bump(1)
	if !res.DominatesOrEqual(a) || !res.DominatesOrEqual(b) {
		t.Fatalf("resolution %v does not dominate %v and %v", res, a, b)
	}
}
