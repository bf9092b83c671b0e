package recon

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/invariant"
	"repro/internal/physical"
	"repro/internal/vv"
)

// scriptedPeer wraps a real peer but rewrites every pull answer.
type scriptedPeer struct {
	Peer
	rewrite func(*physical.PullResult)
	only    ids.FileID // zero: every file's answer
}

func (p *scriptedPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	res, err := p.Peer.PullBatchDelta(reqs, have)
	for i := range res {
		if p.only == (ids.FileID{}) || p.only == reqs[i].File {
			p.rewrite(&res[i])
		}
	}
	return res, err
}

// faultyPeer wraps a real peer but answers the pull of one file id with a
// fixed per-entry error.
func faultyPeer(peer Peer, bad ids.FileID, err error) Peer {
	return &scriptedPeer{Peer: peer, only: bad, rewrite: func(r *physical.PullResult) {
		*r = physical.PullResult{Status: physical.PullError, Err: err}
	}}
}

// TestPullAndApplyEveryStatus drives the one pull-and-apply with every
// PullStatus a peer can answer and pins, once, what each comes to: the
// outcome, and the Stats delta and conflict-log effect for an origin batch
// (Propagate) and for a directory batch (ReconcileVolume).  The file exists
// on both sides, the remote holds a newer version, and an older conflict on
// the file is already logged: the two sides edited it concurrently, and the
// remote's newer version is the owner's resolution.  Only an install of that
// version clears the conflict.
func TestPullAndApplyEveryStatus(t *testing.T) {
	boom := errors.New("peer-side failure")
	theirs := vv.Of(map[ids.ReplicaID]uint64{2: 9})
	cases := []struct {
		name    string
		rewrite func(*physical.PullResult)
		kind    outcomeKind

		propagate     Stats // origin batch
		propConflicts int
		pending       int // entries left in the new-version cache

		reconcile      Stats // directory batch
		reconConflicts int
		reconErr       error
	}{
		{name: "data", rewrite: func(*physical.PullResult) {}, kind: outInstalled,
			propagate: Stats{FilesPulled: 1}, propConflicts: 0,
			reconcile: Stats{DirsVisited: 1, FilesPulled: 1}, reconConflicts: 0},
		{name: "stale", rewrite: func(r *physical.PullResult) { *r = physical.PullResult{Status: physical.PullStale} }, kind: outStale,
			propagate: Stats{}, propConflicts: 1,
			reconcile: Stats{DirsVisited: 1}, reconConflicts: 1},
		{name: "concurrent", rewrite: func(r *physical.PullResult) {
			*r = physical.PullResult{Status: physical.PullConcurrent, RemoteVV: theirs}
		}, kind: outConflict,
			propagate: Stats{Conflicts: 1}, propConflicts: 2,
			reconcile: Stats{DirsVisited: 1, Conflicts: 1}, reconConflicts: 2},
		{name: "not-stored", rewrite: func(r *physical.PullResult) { *r = physical.PullResult{Status: physical.PullNotStored} }, kind: outNotStored,
			propagate: Stats{}, propConflicts: 1,
			reconcile: Stats{DirsVisited: 1, Skipped: 1}, reconConflicts: 1},
		{name: "is-dir", rewrite: func(r *physical.PullResult) { *r = physical.PullResult{Status: physical.PullIsDir} }, kind: outIsDir,
			// Propagate reconciles the "directory"; the real remote stores none.
			propagate: Stats{Skipped: 1}, propConflicts: 1,
			reconcile: Stats{DirsVisited: 1, Skipped: 1}, reconConflicts: 1},
		{name: "error", rewrite: func(r *physical.PullResult) { *r = physical.PullResult{Status: physical.PullError, Err: boom} }, kind: outFailed,
			propagate: Stats{Failures: 1}, propConflicts: 1, pending: 1,
			reconcile: Stats{DirsVisited: 1}, reconConflicts: 1, reconErr: boom},
		{name: "invalid", rewrite: func(r *physical.PullResult) { *r = physical.PullResult{Status: 99} }, kind: outFailed,
			propagate: Stats{Failures: 1}, propConflicts: 1, pending: 1,
			reconcile: Stats{DirsVisited: 1}, reconConflicts: 1},
	}
	fixture := func(rewrite func(*physical.PullResult)) (*physical.Layer, Peer, ids.FileID) {
		local, remote := newReplica(t, 1), newReplica(t, 2)
		write(t, remote, "f", "v1")
		reconcileBoth(t, local, remote)
		write(t, local, "f", "local edit")
		write(t, remote, "f", "remote edit")
		reconcileBoth(t, local, remote)
		if len(local.Conflicts()) != 1 || len(remote.Conflicts()) != 1 {
			t.Fatalf("conflict logs: local %d, remote %d", len(local.Conflicts()), len(remote.Conflicts()))
		}
		if err := Resolve(remote, remote.Conflicts()[0], []byte("v2")); err != nil {
			t.Fatal(err)
		}
		return local, &scriptedPeer{Peer: remote, rewrite: rewrite}, fidOf(t, remote, "f")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, advertise := range []bool{false, true} {
				local, peer, fid := fixture(tc.rewrite)
				out := pullAndApply(local, peer, []pullItem{{dir: physical.RootPath(), file: fid}}, advertise)
				if len(out) != 1 || out[0].kind != tc.kind || (tc.kind == outFailed) != (out[0].err != nil) {
					t.Fatalf("advertise=%v: outcome %+v, want kind %d", advertise, out, tc.kind)
				}
				if got, _ := read(t, local, "f"); (got == "v2") != (tc.kind == outInstalled) {
					t.Fatalf("advertise=%v: local reads %q after outcome %d", advertise, got, tc.kind)
				}
			}

			local, peer, fid := fixture(tc.rewrite)
			local.NoteNewVersion(physical.RootPath(), fid, 2)
			stats, err := PropagateOnce(local, func(ids.ReplicaID) Peer { return peer })
			if stats != tc.propagate || (err != nil) != (tc.kind == outFailed) {
				t.Fatalf("origin batch: stats %v err %v, want %v", stats, err, tc.propagate)
			}
			if n := len(local.Conflicts()); n != tc.propConflicts {
				t.Fatalf("origin batch: %d logged conflicts, want %d", n, tc.propConflicts)
			}
			if n := len(local.PendingVersions()); n != tc.pending {
				t.Fatalf("origin batch: %d entries pending, want %d", n, tc.pending)
			}

			local, peer, _ = fixture(tc.rewrite)
			stats, err = ReconcileVolume(local, peer)
			if stats != tc.reconcile || (err != nil) != (tc.kind == outFailed) || (tc.reconErr != nil && !errors.Is(err, tc.reconErr)) {
				t.Fatalf("directory batch: stats %v err %v, want %v", stats, err, tc.reconcile)
			}
			if n := len(local.Conflicts()); n != tc.reconConflicts {
				t.Fatalf("directory batch: %d logged conflicts, want %d", n, tc.reconConflicts)
			}
			if tc.kind == outConflict {
				c := local.Conflicts()[1]
				if !c.RemoteVV.Equal(theirs) || c.Remote != 2 || !strings.HasSuffix(c.Note, "during reconciliation") {
					t.Fatalf("reported conflict: %+v", c)
				}
			}
		})
	}
}

// TestReconcileVerifiesAgainstManifest: a reconciliation pull ships each
// version beside its manifest, so a payload damaged on the way installs
// nothing and fails the pass with ErrCorrupt — and the files around it in the
// same directory are still pulled.  (Reconciliation used to fetch bare bytes
// with nothing to verify them against.)
func TestReconcileVerifiesAgainstManifest(t *testing.T) {
	defer invariant.ForceForTest(false)() // the rejected install is a violation when armed
	local, remote := newReplica(t, 1), newReplica(t, 2)
	write(t, remote, "a", "a1")
	write(t, remote, "bad", "old")
	write(t, remote, "c", "c1")
	reconcileBoth(t, local, remote)
	write(t, remote, "a", "a2")
	write(t, remote, "bad", "new")
	write(t, remote, "c", "c2")
	badFid := fidOf(t, remote, "bad")

	peer := &scriptedPeer{Peer: remote, rewrite: func(r *physical.PullResult) {
		if string(r.Data) == "new" {
			r.Data = []byte("nEw")
		}
	}}
	stats, err := ReconcileVolume(local, peer)
	if !errors.Is(err, physical.ErrCorrupt) {
		t.Fatalf("pass error = %v, want ErrCorrupt", err)
	}
	if stats.FilesPulled != 2 {
		t.Fatalf("stats %v: want the two intact files pulled", stats)
	}
	if got, _ := read(t, local, "bad"); got != "old" {
		t.Fatalf("damaged payload reached disk: local reads %q", got)
	}
	if local.IsQuarantined(badFid) {
		t.Fatal("a refused install must leave the old version untouched, not quarantined")
	}
	for name, want := range map[string]string{"a": "a2", "c": "c2"} {
		if got, _ := read(t, local, name); got != want {
			t.Fatalf("%s reads %q, want %q", name, got, want)
		}
	}
}
