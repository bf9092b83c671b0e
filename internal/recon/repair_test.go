package recon

import (
	"bytes"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
	"repro/internal/vnode"
)

// quarantinedReplica builds a local replica that pulled one file from
// remote and then suffered bit rot on it: the file is stored, quarantined,
// and due for repair.
func quarantinedReplica(t *testing.T) (local, remote *physical.Layer, fid ids.FileID) {
	t.Helper()
	local = newReplica(t, 1)
	remote = newReplica(t, 2)
	fid = mkRemoteFiles(t, remote, "a")[0]
	reconcileBoth(t, local, remote) // adopt the name and pull the data
	if err := local.CorruptData(physical.RootPath(), fid, 2); err != nil {
		t.Fatal(err)
	}
	if err := local.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	if !local.IsQuarantined(fid) {
		t.Fatal("precondition: file not quarantined")
	}
	return local, remote, fid
}

func TestRepairHealsFromPeer(t *testing.T) {
	local, remote, fid := quarantinedReplica(t)
	find := func(ids.ReplicaID) Peer { return remote }

	stats := Repair(local, find, []ids.ReplicaID{1, 2}, retry.Policy{})
	if stats.FilesPulled+stats.Deferred != 1 || stats.FilesPulled != 1 || stats.Deferred != 0 || stats.GaveUp != 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if local.IsQuarantined(fid) {
		t.Fatal("repair must lift the quarantine")
	}
	data, _, err := local.FileData(physical.RootPath(), fid)
	if err != nil || !bytes.Equal(data, []byte("data-a")) {
		t.Fatalf("healed bytes: %q, %v", data, err)
	}
	if s := local.IntegrityStats(); s.Repaired != 1 || s.Unrepairable != 0 {
		t.Fatalf("integrity stats: %+v", s)
	}
}

func TestRepairUnreachablePeerDefersNotGivesUp(t *testing.T) {
	local, _, fid := quarantinedReplica(t)
	find := func(ids.ReplicaID) Peer { return nil } // health-gated away
	policy := retry.Policy{MaxAttempts: 3, BaseBackoff: 10, MaxBackoff: 10}

	stats := Repair(local, find, []ids.ReplicaID{1, 2}, policy)
	if stats.FilesPulled+stats.Deferred != 1 || stats.Deferred != 1 || stats.GaveUp != 0 || stats.FilesPulled != 0 {
		t.Fatalf("repair stats: %+v", stats)
	}
	if !local.IsQuarantined(fid) {
		t.Fatal("entry must stay quarantined")
	}
	// An unreachable peer is not a verdict.
	if s := local.IntegrityStats(); s.Unrepairable != 0 {
		t.Fatalf("unreachable counted as unrepairable: %+v", s)
	}
	// The entry backs off: an immediately following pass skips it.
	stats = Repair(local, find, []ids.ReplicaID{1, 2}, policy)
	if stats.FilesPulled+stats.Deferred != 0 {
		t.Fatalf("deferred entry re-attempted before its backoff: %+v", stats)
	}
}

func TestRepairDefinitiveRefusalCountsOnce(t *testing.T) {
	// The only peer never stored the file: a locally created file rots with
	// nowhere to heal from.
	local := newReplica(t, 1)
	remote := newReplica(t, 2)
	root, err := local.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("only-here", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("sole copy")); err != nil {
		t.Fatal(err)
	}
	a, err := f.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	fid, err := ids.ParseFileID(a.FileID)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.CorruptData(physical.RootPath(), fid, 0); err != nil {
		t.Fatal(err)
	}
	if err := local.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	find := func(ids.ReplicaID) Peer { return remote }

	// Two rounds with backoff disabled by brute force: re-arm after each.
	policy := retry.Policy{MaxAttempts: 1, BaseBackoff: 1}
	stats := Repair(local, find, []ids.ReplicaID{1, 2}, policy)
	if stats.GaveUp != 1 || stats.Deferred != 1 || stats.FilesPulled != 0 {
		t.Fatalf("first round: %+v", stats)
	}
	if !local.IsQuarantined(fid) {
		t.Fatal("unrepairable entry must stay queued — a replica may reappear")
	}
	for i := 0; i < 10; i++ { // march the clock past the backoff
		Repair(local, find, []ids.ReplicaID{1, 2}, policy)
	}
	if s := local.IntegrityStats(); s.Unrepairable != 1 {
		t.Fatalf("unrepairable must count once per quarantine spell: %+v", s)
	}
}

func TestRepairDefersWhenPeerCopyCorruptToo(t *testing.T) {
	// Both replicas rotted: the peer's serving path detects its own damage
	// mid-pull and answers a transient error, so repair must defer — never
	// install the peer's unverifiable bytes, never conclude unrepairable.
	local, remote, fid := quarantinedReplica(t)
	find := func(ids.ReplicaID) Peer { return remote }
	if err := remote.CorruptData(physical.RootPath(), fid, 1); err != nil {
		t.Fatal(err)
	}
	stats := Repair(local, find, []ids.ReplicaID{1, 2}, retry.Policy{})
	if stats.FilesPulled != 0 || stats.GaveUp != 0 || stats.Deferred != 1 {
		t.Fatalf("corrupt peer must defer, not heal or give up: %+v", stats)
	}
	if !local.IsQuarantined(fid) {
		t.Fatal("quarantine lifted by an unverifiable peer copy")
	}
	// The peer detected its own rot while serving and quarantined itself.
	if !remote.IsQuarantined(fid) {
		t.Fatal("serving replica must quarantine its own corrupt copy")
	}
}
