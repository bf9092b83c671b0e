package recon

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
)

// askingPeer wraps a real peer and records what a pass asks of it: the paths
// of its DirEntries calls and the file ids of each pull.
type askingPeer struct {
	Peer
	dirs  [][]ids.FileID
	pulls [][]ids.FileID
}

func (p *askingPeer) DirEntries(dirPath []ids.FileID) (physical.DirState, error) {
	p.dirs = append(p.dirs, slices.Clone(dirPath))
	return p.Peer.DirEntries(dirPath)
}

func (p *askingPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	fids := make([]ids.FileID, len(reqs))
	for i := range reqs {
		fids[i] = reqs[i].File
	}
	p.pulls = append(p.pulls, fids)
	return p.Peer.PullBatchDelta(reqs, have)
}

// noticeRig is a local replica in step with a remote one that holds n files
// in /d and a stored child directory /d/sub with one file.
func noticeRig(t *testing.T, n int) (local, remote *physical.Layer, d ids.FileID) {
	t.Helper()
	local, remote = newReplica(t, 1), newReplica(t, 2)
	root, _ := remote.Root()
	dv, err := root.Mkdir("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dv.Mkdir("sub"); err != nil {
		t.Fatal(err)
	}
	write(t, remote, "d/sub/s", "s1")
	for i := 0; i < n; i++ {
		write(t, remote, fmt.Sprintf("d/f%03d", i), "v1")
	}
	if _, err := ReconcileVolume(local, remote); err != nil {
		t.Fatal(err)
	}
	return local, remote, fidOf(t, remote, "d")
}

// noticePass announces /d alone and runs one propagation pass against an
// asking wrapper of remote.
func noticePass(t *testing.T, local, remote *physical.Layer, d ids.FileID) (Stats, *askingPeer) {
	t.Helper()
	local.NoteNewVersion(physical.RootPath(), d, remote.Replica())
	peer := &askingPeer{Peer: remote}
	stats, err := PropagateOnce(local, func(ids.ReplicaID) Peer { return peer })
	if err != nil {
		t.Fatal(err)
	}
	if n := len(local.PendingVersions()); n != 0 {
		t.Fatalf("%d notices left after the pass", n)
	}
	return stats, peer
}

// TestDirectoryNoticeAsksForWhatItLacks: a directory's new-version notice
// merges that directory — one DirEntries — and pulls, in one pull, exactly the
// files the replica stores no copy of; with none missing there is no pull.
// However many files the directory holds, none of them is asked about, and its
// stored child directory is not visited.
func TestDirectoryNoticeAsksForWhatItLacks(t *testing.T) {
	for _, n := range []int{1, 128} {
		local, remote, d := noticeRig(t, n)
		dPath := []ids.FileID{ids.RootFileID, d}

		// A create: the visit asks for the one new file.
		write(t, remote, "d/new", "fresh")
		newFid := fidOf(t, remote, "d/new")
		stats, peer := noticePass(t, local, remote, d)
		wantPulls := [][]ids.FileID{{d}, {newFid}} // the notice's own pull answers is-dir
		if !slices.EqualFunc(peer.dirs, [][]ids.FileID{dPath}, slices.Equal) || !slices.EqualFunc(peer.pulls, wantPulls, slices.Equal) {
			t.Fatalf("n=%d create: DirEntries %v, pulls %v; want %v and %v", n, peer.dirs, peer.pulls, [][]ids.FileID{dPath}, wantPulls)
		}
		if stats.DirsVisited != 1 || stats.EntriesAdopted != 1 || stats.FilesPulled != 1 {
			t.Fatalf("n=%d create: %v", n, stats)
		}
		if got, err := read(t, local, "d/new"); err != nil || got != "fresh" {
			t.Fatalf("n=%d: d/new = %q, %v", n, got, err)
		}

		// A remove: nothing is missing, so the visit is its DirEntries alone.
		rd, _ := remote.Root()
		dv, _ := rd.Lookup("d")
		if err := dv.Remove("f000"); err != nil {
			t.Fatal(err)
		}
		stats, peer = noticePass(t, local, remote, d)
		if len(peer.dirs) != 1 || !slices.EqualFunc(peer.pulls, [][]ids.FileID{{d}}, slices.Equal) {
			t.Fatalf("n=%d remove: DirEntries %v, pulls %v; want one DirEntries and the notice's pull", n, peer.dirs, peer.pulls)
		}
		if stats.DirsVisited != 1 || stats.EntriesDeleted != 1 || stats.FilesPulled != 0 {
			t.Fatalf("n=%d remove: %v", n, stats)
		}
		checkClean(t, local)
	}
}

// TestDirectoryNoticeLeavesStoredChildren: a change to a stored file, or
// inside a stored child directory, has its own notice; the parent's notice
// leaves both alone, and the periodic reconciliation — the backstop for a lost
// notice — brings them.  A child directory the replica does not store yet
// arrives whole with the notice that names it.
func TestDirectoryNoticeLeavesStoredChildren(t *testing.T) {
	local, remote, d := noticeRig(t, 2)
	sub := fidOf(t, remote, "d/sub")
	// Two updates whose own notices were lost.
	write(t, remote, "d/f001", "v2")
	write(t, remote, "d/sub/s", "s2")
	// A new subtree, named by /d's notice.
	root, _ := remote.Root()
	dv, _ := root.Lookup("d")
	nd, err := dv.Mkdir("new")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Mkdir("deep"); err != nil {
		t.Fatal(err)
	}
	write(t, remote, "d/new/x", "x1")
	write(t, remote, "d/new/deep/y", "y1")

	stats, peer := noticePass(t, local, remote, d)
	if stats.DirsCreated != 2 || stats.DirsVisited != 3 || stats.FilesPulled != 2 {
		t.Fatalf("notice pass: %v", stats)
	}
	for _, p := range peer.dirs {
		if slices.Contains(p, sub) {
			t.Fatalf("the stored child directory was visited: DirEntries %v", peer.dirs)
		}
	}
	for path, want := range map[string]string{"d/new/x": "x1", "d/new/deep/y": "y1", "d/f001": "v1", "d/sub/s": "s1"} {
		if got, err := read(t, local, path); err != nil || got != want {
			t.Fatalf("after the notice %s = %q, %v; want %q", path, got, err, want)
		}
	}

	stats, err = ReconcileVolume(local, remote)
	if err != nil || stats.FilesPulled != 2 {
		t.Fatalf("reconciliation: %v %v", stats, err)
	}
	for path, want := range map[string]string{"d/f001": "v2", "d/sub/s": "s2"} {
		if got, err := read(t, local, path); err != nil || got != want {
			t.Fatalf("after reconciliation %s = %q, %v; want %q", path, got, err, want)
		}
	}
	checkClean(t, local)
}

// TestReconcileDescendsPastAFailedPull: a file whose pull fails — here the
// peer's only copy is corrupt — must not keep reconciliation out of the
// directories below it.  The pass reports the failure once it has visited
// every directory.
func TestReconcileDescendsPastAFailedPull(t *testing.T) {
	local, remote := newReplica(t, 1), newReplica(t, 2)
	root, _ := remote.Root()
	if _, err := root.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	write(t, remote, "a", "v1")
	if _, err := ReconcileVolume(local, remote); err != nil {
		t.Fatal(err)
	}
	write(t, remote, "a", "v2")
	write(t, remote, "d/y", "y1")
	bad := fidOf(t, remote, "a")
	peer := faultyPeer(remote, bad, fmt.Errorf("%w: a is quarantined", physical.ErrCorrupt))

	stats, err := ReconcileVolume(local, peer)
	if !errors.Is(err, physical.ErrCorrupt) {
		t.Fatalf("err = %v, want the failed pull's", err)
	}
	if stats.DirsVisited != 2 || stats.EntriesAdopted != 1 || stats.FilesPulled != 1 {
		t.Fatalf("stats %v: want /d visited and d/y pulled", stats)
	}
	if got, err := read(t, local, "d/y"); err != nil || got != "y1" {
		t.Fatalf("d/y = %q, %v", got, err)
	}
	if got, _ := read(t, local, "a"); got != "v1" {
		t.Fatalf("a = %q, want the old version kept", got)
	}
}
