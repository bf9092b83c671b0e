package vv

import (
	"testing"

	"repro/internal/invariant"
)

// TestCompareArmedAntisymmetry runs the armed cross-check over every order
// class: the hook re-compares with operands swapped, so a pass proves the
// dominance relation is antisymmetric on these shapes (and that the hook
// itself does not false-fire on the healthy implementation).
func TestCompareArmedAntisymmetry(t *testing.T) {
	defer invariant.ForceForTest(true)()
	cases := []struct {
		a, b Vector
		want Order
	}{
		{Vector{}, Vector{}, Equal},
		{Vector{}.Bump(1), Vector{}, Dominates},
		{Vector{}, Vector{}.Bump(1), Dominated},
		{Vector{}.Bump(1), Vector{}.Bump(2), Concurrent},
		{Vector{}.Bump(1).Bump(2), Vector{}.Bump(1), Dominates},
		{Merge(Vector{}.Bump(1), Vector{}.Bump(2)), Vector{}.Bump(2), Dominates},
		{vec(1, 3, 2, 1), vec(1, 1, 2, 3), Concurrent},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Fatalf("Compare(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

// TestOrderMirror pins the mirror table the antisymmetry hook relies on.
func TestOrderMirror(t *testing.T) {
	pairs := map[Order]Order{
		Equal:      Equal,
		Dominates:  Dominated,
		Dominated:  Dominates,
		Concurrent: Concurrent,
	}
	for o, want := range pairs {
		if got := o.mirror(); got != want {
			t.Fatalf("%s.mirror() = %s, want %s", o, got, want)
		}
	}
}
