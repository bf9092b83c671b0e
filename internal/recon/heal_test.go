package recon

import (
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
)

// A quarantined local copy is healed by whichever pull visits it: the
// request is unconditional, and the puller classifies what ships against its
// own vector.  Each test starts from a quarantined copy of /f on local.

// rot flips one stored data bit of l's copy of f and scrubs, so the copy is
// quarantined; calling it again at the same offset flips the bit back.
func rot(t *testing.T, l *physical.Layer, fid ids.FileID, off uint64) {
	t.Helper()
	if err := l.CorruptData(physical.RootPath(), fid, off); err != nil {
		t.Fatal(err)
	}
	if err := l.ScrubPass(); err != nil {
		t.Fatal(err)
	}
}

// quarantinedPair builds local and remote holding the same version of /f
// ("v1"), local's copy quarantined; localEdit and remoteEdit, when set,
// are that replica's own next version of /f, written before the rot.
func quarantinedPair(t *testing.T, localEdit, remoteEdit string) (local, remote *physical.Layer, fid ids.FileID) {
	t.Helper()
	local, remote = newReplica(t, 1), newReplica(t, 2)
	write(t, remote, "f", "v1")
	reconcileBoth(t, local, remote)
	if localEdit != "" {
		write(t, local, "f", localEdit)
	}
	if remoteEdit != "" {
		write(t, remote, "f", remoteEdit)
	}
	fid = fidOf(t, local, "f")
	rot(t, local, fid, 1)
	if !local.IsQuarantined(fid) {
		t.Fatal("precondition: local copy not quarantined")
	}
	return local, remote, fid
}

// healed checks that local's copy left quarantine through a verified
// install of want.
func healed(t *testing.T, local *physical.Layer, fid ids.FileID, want string) {
	t.Helper()
	if local.IsQuarantined(fid) {
		t.Fatal("the install must lift the quarantine")
	}
	if s := local.IntegrityStats(); s.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", s.Repaired)
	}
	data, err := read(t, local, "f")
	if err != nil || data != want {
		t.Fatalf("healed bytes %q, %v; want %q", data, err, want)
	}
}

// untouched checks that local's copy is still quarantined and, once the rot
// is flipped back, still holds want.
func untouched(t *testing.T, local *physical.Layer, fid ids.FileID, want string) {
	t.Helper()
	if !local.IsQuarantined(fid) {
		t.Fatal("the copy left quarantine without a verified install")
	}
	if s := local.IntegrityStats(); s.Repaired != 0 {
		t.Fatalf("repaired = %d, want 0", s.Repaired)
	}
	rot(t, local, fid, 1)
	if got, err := read(t, local, "f"); err != nil || got != want {
		t.Fatalf("local bytes %q, %v; want %q", got, err, want)
	}
}

func TestReconcileHealsQuarantinedCopyFromEqualVersion(t *testing.T) {
	local, remote, fid := quarantinedPair(t, "", "")
	stats, err := ReconcileVolume(local, remote)
	if err != nil || stats.FilesPulled != 1 || stats.Conflicts != 0 {
		t.Fatalf("reconcile: %v, %v", stats, err)
	}
	healed(t, local, fid, "v1")
}

func TestEqualVersionNoticeHealsQuarantinedCopy(t *testing.T) {
	local, remote, fid := quarantinedPair(t, "", "")
	local.NoteNewVersion(physical.RootPath(), fid, remote.Replica())
	stats, err := PropagateOnce(local, func(ids.ReplicaID) Peer { return remote })
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("propagate: %v, %v", stats, err)
	}
	if n := len(local.PendingVersions()); n != 0 {
		t.Fatalf("%d notices left pending", n)
	}
	healed(t, local, fid, "v1")
}

func TestOlderPeerVersionDoesNotRollBack(t *testing.T) {
	local, remote, fid := quarantinedPair(t, "v2", "")
	stats, err := ReconcileVolume(local, remote)
	if err != nil || stats.FilesPulled != 0 || stats.Conflicts != 0 {
		t.Fatalf("reconcile: %v, %v", stats, err)
	}
	untouched(t, local, fid, "v2")
}

func TestConcurrentPeerVersionIsOneConflict(t *testing.T) {
	local, remote, fid := quarantinedPair(t, "local edit", "remote edit")
	stats, err := ReconcileVolume(local, remote)
	if err != nil || stats.FilesPulled != 0 || stats.Conflicts != 1 {
		t.Fatalf("reconcile: %v, %v", stats, err)
	}
	if c := local.Conflicts(); len(c) != 1 || c[0].File != fid || c[0].Remote != remote.Replica() {
		t.Fatalf("conflict log: %+v", c)
	}
	untouched(t, local, fid, "local edit")
}

func TestRottenPeerCopyIsAPerEntryFailure(t *testing.T) {
	local, remote, fid := quarantinedPair(t, "", "")
	if err := remote.CorruptData(physical.RootPath(), fid, 0); err != nil {
		t.Fatal(err)
	}
	// The serving side detects its own damage mid-pull: the entry fails
	// with the transient corruption error, the walk goes on.
	stats, err := ReconcileVolume(local, remote)
	if !errors.Is(err, physical.ErrCorrupt) || stats.FilesPulled != 0 || stats.DirsVisited != 1 {
		t.Fatalf("reconcile: %v, %v", stats, err)
	}
	if !remote.IsQuarantined(fid) {
		t.Fatal("the serving replica must quarantine its own rotten copy")
	}
	untouched(t, local, fid, "v1")
}
