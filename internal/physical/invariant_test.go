package physical

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/vnode"
	"repro/internal/vv"
)

// mustViolate runs fn expecting an armed invariant to fire.
func mustViolate(t *testing.T, fn func()) *invariant.Violation {
	t.Helper()
	defer invariant.ForceForTest(true)()
	var got *invariant.Violation
	func() {
		defer func() {
			r := recover()
			v, ok := r.(*invariant.Violation)
			if !ok {
				t.Fatalf("panic value = %v (%T), want *invariant.Violation", r, r)
			}
			got = v
		}()
		fn()
		t.Fatal("no invariant fired")
	}()
	return got
}

// TestInstallRegressionFiresInvariant corrupts a file's version vector the
// way an aliasing or misclassification bug would — installing a vector
// that drops the local replica's own update counter — and asserts the
// monotonicity hook refuses it.
func TestInstallRegressionFiresInvariant(t *testing.T) {
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("v1")) // bumps replica 1's counter
	fid := mustFid(t, f)

	// {2:1} silently discards replica 1's counter: a regression.
	corrupt := vv.Vector{}.Bump(2)
	v := mustViolate(t, func() {
		_ = l.InstallFileVersion(RootPath(), fid, KFile, []byte("v2"), corrupt, 1)
	})
	if v.Msg == "" {
		t.Fatal("empty violation message")
	}
}

// TestInstallDominatingPassesInvariant: the legitimate propagation path —
// install a vector that dominates the stored one — must not fire.
func TestInstallDominatingPassesInvariant(t *testing.T) {
	defer invariant.ForceForTest(true)()
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("v1"))
	fid := mustFid(t, f)

	st, err := l.FileInfo(RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	newVV := st.Aux.VV.Bump(2)
	if err := l.InstallFileVersion(RootPath(), fid, KFile, []byte("v2"), newVV, 1); err != nil {
		t.Fatal(err)
	}
}

// TestNoteNewVersionLiveReplicaInvariant: a new-version cache entry naming
// the local replica (or the zero id) is a protocol bug; armed hooks catch
// it at the insertion point.
func TestNoteNewVersionLiveReplicaInvariant(t *testing.T) {
	l, _ := newLayer(t, 3)
	fid := ids.FileID{Issuer: 2, Seq: 9}

	mustViolate(t, func() { l.NoteNewVersion(RootPath(), fid, 3) }) // self
	mustViolate(t, func() { l.NoteNewVersion(RootPath(), fid, 0) }) // unset

	// A genuine remote origin passes and lands in the cache.
	defer invariant.ForceForTest(true)()
	l.NoteNewVersion(RootPath(), fid, 2)
	pend := l.PendingVersions()
	if len(pend) != 1 || pend[0].Origin != 2 {
		t.Fatalf("pending = %+v, want one entry from origin 2", pend)
	}
}

// TestInvariantDisarmedIsFreeOfPanics: with the gate off, even a
// regressing install only corrupts state — it must not panic (production
// behavior is unchanged by the hook's presence).
func TestInvariantDisarmedIsFreeOfPanics(t *testing.T) {
	defer invariant.ForceForTest(false)()
	l, _ := newLayer(t, 1)
	root, _ := l.Root()
	f, _ := root.Create("f", true)
	vnode.WriteFile(f, []byte("v1"))
	fid := mustFid(t, f)
	if err := l.InstallFileVersion(RootPath(), fid, KFile, []byte("v2"), vv.Vector{}.Bump(2), 1); err != nil {
		t.Fatal(err)
	}
	l.NoteNewVersion(RootPath(), fid, l.Replica())
}

// Compile-time check that Violation is an error (so recover sites can use
// errors.As after wrapping).
var _ error = (*invariant.Violation)(nil)
