package recon

import (
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
)

// blk is one full data block tagged by b.
func blk(b byte) string { return strings.Repeat(string(b), physical.ChecksumBlockSize) }

// recordingPeer wraps a real peer and keeps every pull's advertisement;
// onPull, if set, runs as each pull arrives (the base is built, nothing is
// installed yet).
type recordingPeer struct {
	Peer
	haves  [][]physical.BlockAddr
	onPull func()
}

func (p *recordingPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	p.haves = append(p.haves, have)
	if p.onPull != nil {
		p.onPull()
	}
	return p.Peer.PullBatchDelta(reqs, have)
}

// announce queues the remote's current version of each path in local's
// new-version cache, as an update notification would.
func announce(t *testing.T, local, remote *physical.Layer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		local.NoteNewVersion(physical.RootPath(), fidOf(t, remote, path), remote.Replica())
	}
}

func checkClean(t *testing.T, l *physical.Layer) {
	t.Helper()
	if problems, err := l.Check(); err != nil || len(problems) != 0 {
		t.Fatalf("fsck: %v %v", problems, err)
	}
}

// quickRetry keeps the backoff after a transient failure to a few passes.
var quickRetry = PropagateConfig{Policy: retry.Policy{MaxAttempts: 1, BaseBackoff: 2, MaxBackoff: 16}}

// passWhenDue runs empty passes until the first pending entry's backoff has
// expired, then the pass that retries it.
func passWhenDue(t *testing.T, local *physical.Layer, find PeerFinder) Stats {
	t.Helper()
	for local.DaemonTick()+1 < local.PendingVersions()[0].NotBefore {
		if stats, err := Propagate(local, find, quickRetry); err != nil || stats.FilesPulled != 0 {
			t.Fatalf("backoff pass: stats=%v err=%v", stats, err)
		}
	}
	stats, err := Propagate(local, find, quickRetry)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestAdvertisementIsBoundedByTheRequest: a replica that has pulled a new
// version of each of 64 files in one pass then pulls one changed file.  Its
// advertisement is that one file's blocks — the sealed manifest of the
// version being replaced — not everything it ever pulled; building it writes
// nothing to the device, and the store holds nothing beside the files
// themselves (fsck reads the store root).
func TestAdvertisementIsBoundedByTheRequest(t *testing.T) {
	local, dev := newReplicaOnDevice(t, 1)
	remote := newReplica(t, 2)
	peer := &recordingPeer{Peer: remote}
	find := func(ids.ReplicaID) Peer { return peer }
	var paths []string
	for i := 0; i < 64; i++ {
		paths = append(paths, "f"+string(rune('A'+i)))
	}
	for round, tail := range []string{"", "grown"} {
		for i, path := range paths {
			write(t, remote, path, blk(byte(i))+tail)
		}
		if round == 0 {
			reconcileBoth(t, local, remote) // the directory entries
		}
		announce(t, local, remote, paths...)
		if stats, err := PropagateOnce(local, find); err != nil || stats.FilesPulled != 64*round {
			t.Fatalf("round %d: stats=%v err=%v", round, stats, err)
		}
	}
	if n := len(peer.haves[len(peer.haves)-1]); n != 64 {
		t.Fatalf("the 64-file pull advertised %d blocks, want the 64 it replaces", n)
	}

	write(t, remote, paths[7], blk(7)+"grown"+"again")
	announce(t, local, remote, paths[7])
	before := dev.Stats().Writes
	peer.onPull = func() {
		if w := dev.Stats().Writes - before; w != 0 {
			t.Errorf("building the base cost %d device writes, want 0", w)
		}
	}
	stats, err := PropagateOnce(local, find)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("stats=%v err=%v", stats, err)
	}
	if n := len(peer.haves[len(peer.haves)-1]); n != 2 {
		t.Fatalf("pulling one two-block file advertised %d blocks, want 2", n)
	}
	if got, _ := read(t, local, paths[7]); got != blk(7)+"grownagain" {
		t.Fatalf("pulled file reads %d bytes", len(got))
	}
	checkClean(t, local)
}

// TestRotInBaseBlockNeverInstalls: a block the delta would reuse has rotted
// at rest.  The pass that trips over it installs nothing: the holder fails
// its seal on the verified read-back, is quarantined, and the entry stays
// pending under backoff (a transient failure, not a pass error).  The retry
// finds no trustworthy local version, advertises nothing, is answered with
// the whole file, and the verified install lifts the quarantine.  The rotten
// bytes never reach a version.
func TestRotInBaseBlockNeverInstalls(t *testing.T) {
	local, remote := newReplica(t, 1), newReplica(t, 2)
	peer := &recordingPeer{Peer: remote}
	find := func(ids.ReplicaID) Peer { return peer }
	write(t, remote, "f", blk('a')+blk('b'))
	reconcileBoth(t, local, remote)
	fid := fidOf(t, remote, "f")
	write(t, remote, "f", blk('a')+blk('b')+blk('c'))
	announce(t, local, remote, "f")
	if err := local.CorruptData(physical.RootPath(), fid, 100); err != nil { // inside block a
		t.Fatal(err)
	}

	stats, err := Propagate(local, find, quickRetry)
	if err != nil || stats.FilesPulled != 0 || stats.Failures != 1 {
		t.Fatalf("pass over the rotten base: stats=%v err=%v, want one transient failure", stats, err)
	}
	if n := len(peer.haves[0]); n != 2 {
		t.Fatalf("first pull advertised %d blocks, want 2", n)
	}
	if !local.IsQuarantined(fid) {
		t.Fatal("the holder failed its seal and was not quarantined")
	}
	if pend := local.PendingVersions(); len(pend) != 1 || pend[0].Attempts != 1 {
		t.Fatalf("entry must stay pending under backoff: %+v", pend)
	}
	if st, err := local.FileInfo(physical.RootPath(), fid); err != nil || st.Size != 2*physical.ChecksumBlockSize {
		t.Fatalf("the refused install touched the file: %+v %v", st, err)
	}

	if stats := passWhenDue(t, local, find); stats.FilesPulled != 1 {
		t.Fatalf("retry: stats=%v", stats)
	}
	if n := len(peer.haves[len(peer.haves)-1]); n != 0 {
		t.Fatalf("a quarantined file was offered as a base: %d blocks advertised", n)
	}
	if local.IsQuarantined(fid) || local.IntegrityStats().Repaired != 1 {
		t.Fatalf("the verified install did not lift the quarantine: %v", local.IntegrityStats())
	}
	if got, _ := read(t, local, "f"); got != blk('a')+blk('b')+blk('c') {
		t.Fatalf("healed file reads %d bytes", len(got))
	}
	if got := local.BlockStats().BlocksReused; got != 0 {
		t.Fatalf("%d blocks were reused from a rotten base", got)
	}
	checkClean(t, local)
}

// TestSharedBlockWithinOneRequest: two files of one batch share a block, and
// the file that held it is replaced first.  x = [s,1] -> [n] and
// y = [2] -> [2,s]: the one advertisement claims s (from x), so the origin
// ships only n; installing x drops s, y's install misses it and defers; the
// next pass advertises y's own block alone, the origin ships s, and the
// replicas converge.
func TestSharedBlockWithinOneRequest(t *testing.T) {
	local, remote := newReplica(t, 1), newReplica(t, 2)
	find := func(ids.ReplicaID) Peer { return remote }
	write(t, remote, "x", blk('s')+blk('1'))
	write(t, remote, "y", blk('2'))
	reconcileBoth(t, local, remote)
	write(t, remote, "x", blk('n'))
	write(t, remote, "y", blk('2')+blk('s'))
	announce(t, local, remote, "x", "y")

	stats, err := Propagate(local, find, quickRetry)
	if err != nil || stats.FilesPulled != 1 || stats.Failures != 1 {
		t.Fatalf("pass 1: stats=%v err=%v, want x installed and y deferred", stats, err)
	}
	if got, _ := read(t, local, "y"); got != blk('2') {
		t.Fatalf("the deferred install touched y: %d bytes", len(got))
	}
	if stats := passWhenDue(t, local, find); stats.FilesPulled != 1 {
		t.Fatalf("pass 2: stats=%v", stats)
	}
	if a, b := treeDump(t, local), treeDump(t, remote); a != b {
		t.Fatalf("replicas differ:\n%s\n---\n%s", a, b)
	}
	if shipped, reused := remote.BlockStats().BlocksShipped, local.BlockStats().BlocksReused; shipped != 2 || reused != 1 {
		t.Fatalf("origin shipped %d blocks and the puller reused %d, want 2 and 1", shipped, reused)
	}
	if local.IsQuarantined(fidOf(t, remote, "x")) || local.IsQuarantined(fidOf(t, remote, "y")) {
		t.Fatal("a miss on a replaced holder is not corruption")
	}
	checkClean(t, local)
}
