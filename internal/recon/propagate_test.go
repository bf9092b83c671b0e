package recon

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
	"repro/internal/vnode"
)

// mkRemoteFiles creates n files on the remote replica and returns their
// ids in PendingVersions order (ascending file id).
func mkRemoteFiles(t *testing.T, remote *physical.Layer, names ...string) []ids.FileID {
	t.Helper()
	root, err := remote.Root()
	if err != nil {
		t.Fatal(err)
	}
	fids := make([]ids.FileID, len(names))
	for i, name := range names {
		f, err := root.Create(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("data-"+name)); err != nil {
			t.Fatal(err)
		}
		a, err := f.Getattr()
		if err != nil {
			t.Fatal(err)
		}
		if fids[i], err = ids.ParseFileID(a.FileID); err != nil {
			t.Fatal(err)
		}
	}
	return fids
}

// TestPropagatePassSurvivesEntryFailure is the regression test for the
// first-error starvation bug: a failing entry early in the pass must not
// abort the pass — every later pending entry still propagates, and the
// failure is reported through Stats and the aggregated error.
func TestPropagatePassSurvivesEntryFailure(t *testing.T) {
	local := newReplica(t, 1)
	remote := newReplica(t, 2)
	fids := mkRemoteFiles(t, remote, "bad", "good1", "good2")

	for _, fid := range fids {
		local.NoteNewVersion(physical.RootPath(), fid, 2)
	}
	boom := errors.New("on-disk corruption reading replica")
	peer := faultyPeer(remote, fids[0], boom)
	find := func(ids.ReplicaID) Peer { return peer }

	stats, err := PropagateOnce(local, find)
	if stats.FilesPulled != 2 {
		t.Fatalf("pulled %d files, want 2 (later entries starved by the failing first entry)", stats.FilesPulled)
	}
	if stats.Failures != 1 {
		t.Fatalf("stats %v: want 1 failure recorded", stats)
	}
	// The error is permanent, so it must surface — aggregated, after the
	// whole pass ran.
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("aggregated error = %v, want wrapped %v", err, boom)
	}
	// The failed entry stays pending with backoff state; the good ones
	// are gone.
	pend := local.PendingVersions()
	if len(pend) != 1 || pend[0].File != fids[0] {
		t.Fatalf("pending after pass: %+v", pend)
	}
	if pend[0].Attempts != 1 || pend[0].NotBefore <= local.DaemonTick() {
		t.Fatalf("no backoff recorded: %+v at tick %d", pend[0], local.DaemonTick())
	}
}

// TestPropagateAggregatesMultipleFailures: several failing entries all get
// attempted and all show up in the joined error.
func TestPropagateAggregatesMultipleFailures(t *testing.T) {
	local := newReplica(t, 1)
	remote := newReplica(t, 2)
	fids := mkRemoteFiles(t, remote, "bad1", "bad2")
	for _, fid := range fids {
		local.NoteNewVersion(physical.RootPath(), fid, 2)
	}
	boom := errors.New("permanent peer error")
	// Both entries fail: one bad peer per file via nested wrappers.
	peer := faultyPeer(faultyPeer(remote, fids[1], boom), fids[0], boom)
	stats, err := PropagateOnce(local, func(ids.ReplicaID) Peer { return peer })
	if stats.Failures != 2 {
		t.Fatalf("stats %v", stats)
	}
	if err == nil || len(strings.Split(err.Error(), "\n")) != 2 {
		t.Fatalf("joined error should carry both failures: %v", err)
	}
}

// TestPropagateBacksOffUnreachableOrigin: an unreachable origin is not
// polled again until the backoff expires, and a fresh announcement lifts
// the deferral immediately.
func TestPropagateBacksOffUnreachableOrigin(t *testing.T) {
	local := newReplica(t, 1)
	remote := newReplica(t, 2)
	fids := mkRemoteFiles(t, remote, "f")
	local.NoteNewVersion(physical.RootPath(), fids[0], 2)

	cfg := PropagateConfig{Policy: retry.Policy{MaxAttempts: 1, BaseBackoff: 2, MaxBackoff: 16}}
	finderCalls := 0
	down := func(ids.ReplicaID) Peer { finderCalls++; return nil }

	// Pass 1: origin down -> deferred with backoff.
	stats, err := Propagate(local, down, cfg)
	if err != nil || stats.Deferred != 1 || finderCalls != 1 {
		t.Fatalf("pass 1: stats=%v err=%v calls=%d", stats, err, finderCalls)
	}
	notBefore := local.PendingVersions()[0].NotBefore
	if notBefore <= local.DaemonTick() {
		t.Fatalf("NotBefore %d not in the future of tick %d", notBefore, local.DaemonTick())
	}

	// While backing off, the daemon must not even consult the finder.
	for local.DaemonTick()+1 < notBefore {
		stats, err = Propagate(local, down, cfg)
		if err != nil || stats.Deferred != 1 {
			t.Fatalf("backoff pass: stats=%v err=%v", stats, err)
		}
	}
	if finderCalls != 1 {
		t.Fatalf("finder consulted %d times during backoff, want 1", finderCalls)
	}

	// Once due again, the origin is retried (and the attempt count grew).
	stats, err = Propagate(local, down, cfg)
	if err != nil || finderCalls != 2 {
		t.Fatalf("retry pass: stats=%v err=%v calls=%d", stats, err, finderCalls)
	}
	if pend := local.PendingVersions(); pend[0].Attempts != 2 {
		t.Fatalf("attempts %d, want 2", pend[0].Attempts)
	}

	// A fresh announcement lifts the deferral: the very next pass pulls.
	local.NoteNewVersion(physical.RootPath(), fids[0], 2)
	if nb := local.PendingVersions()[0].NotBefore; nb != 0 {
		t.Fatalf("announcement did not clear NotBefore: %d", nb)
	}
	stats, err = Propagate(local, func(ids.ReplicaID) Peer { return remote }, cfg)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("after heal: stats=%v err=%v", stats, err)
	}
	if len(local.PendingVersions()) != 0 {
		t.Fatal("entry not dropped after successful pull")
	}
}

// TestPropagateTransientFailureNotAnError: a transient (unreachable-class)
// per-entry failure shows up in Stats but not in the returned error — the
// daemon loop must keep running through normal partial operation.
func TestPropagateTransientFailureNotAnError(t *testing.T) {
	local := newReplica(t, 1)
	remote := newReplica(t, 2)
	fids := mkRemoteFiles(t, remote, "f")
	local.NoteNewVersion(physical.RootPath(), fids[0], 2)
	transient := &transientErr{}
	peer := faultyPeer(remote, fids[0], transient)
	stats, err := PropagateOnce(local, func(ids.ReplicaID) Peer { return peer })
	if err != nil {
		t.Fatalf("transient failure surfaced as pass error: %v", err)
	}
	if stats.Failures != 1 {
		t.Fatalf("stats %v", stats)
	}
	if pend := local.PendingVersions(); len(pend) != 1 || pend[0].Attempts != 1 {
		t.Fatalf("pending %+v", pend)
	}
}

type transientErr struct{}

func (*transientErr) Error() string   { return "link flapped" }
func (*transientErr) Transient() bool { return true }
