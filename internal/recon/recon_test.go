package recon

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vv"
)

var testVol = ids.VolumeHandle{Allocator: 1, Volume: 1}

func newReplica(t testing.TB, r ids.ReplicaID) *physical.Layer {
	t.Helper()
	l, _ := newReplicaOnDevice(t, r)
	return l
}

func newReplicaOnDevice(t testing.TB, r ids.ReplicaID) (*physical.Layer, *disk.Device) {
	t.Helper()
	dev := disk.New(16384)
	fs, err := ufs.Mkfs(dev, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := physical.Format(ufsvn.New(fs), testVol, r)
	if err != nil {
		t.Fatal(err)
	}
	return l, dev
}

// reconcileBoth runs a pull in each direction, as the periodic protocol
// would around a gossip cycle.
func reconcileBoth(t *testing.T, a, b *physical.Layer) (Stats, Stats) {
	t.Helper()
	sa, err := ReconcileVolume(a, b)
	if err != nil {
		t.Fatalf("a<-b: %v", err)
	}
	sb, err := ReconcileVolume(b, a)
	if err != nil {
		t.Fatalf("b<-a: %v", err)
	}
	return sa, sb
}

// treeDump renders the full client-visible tree with file contents.
func treeDump(t *testing.T, l *physical.Layer) string {
	t.Helper()
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(v vnode.Vnode, prefix string)
	walk = func(v vnode.Vnode, prefix string) {
		ents, err := v.Readdir()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			c, err := v.Lookup(e.Name)
			if vnode.AsErrno(err) == vnode.ENOSTOR {
				lines = append(lines, prefix+e.Name+" [unstored]")
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			switch e.Type {
			case vnode.VDir:
				lines = append(lines, prefix+e.Name+"/")
				walk(c, prefix+e.Name+"/")
			default:
				data, err := vnode.ReadFile(c)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s%s = %q", prefix, e.Name, data))
			}
		}
	}
	walk(root, "")
	return strings.Join(lines, "\n")
}

func write(t *testing.T, l *physical.Layer, path string, data string) {
	t.Helper()
	root, _ := l.Root()
	parent, name, err := vnode.WalkParent(root, path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parent.Create(name, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte(data)); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, l *physical.Layer, path string) (string, error) {
	t.Helper()
	root, _ := l.Root()
	v, err := vnode.Walk(root, path)
	if err != nil {
		return "", err
	}
	data, err := vnode.ReadFile(v)
	return string(data), err
}

func TestSubtreeReconciliationConverges(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	// Build a tree on a only.
	rootA, _ := a.Root()
	vnode.MkdirAll(rootA, "src/pkg")
	write(t, a, "src/pkg/main.go", "package main")
	write(t, a, "src/README", "docs")
	write(t, a, "top.txt", "top")

	stats, err := ReconcileVolume(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 3 || stats.DirsCreated != 2 {
		t.Fatalf("stats %v", stats)
	}
	if got, _ := read(t, b, "src/pkg/main.go"); got != "package main" {
		t.Fatalf("b sees %q", got)
	}
	if treeDump(t, a) != treeDump(t, b) {
		t.Fatalf("trees diverge:\nA:\n%s\nB:\n%s", treeDump(t, a), treeDump(t, b))
	}
	// Quiescence.
	stats, err = ReconcileVolume(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed() {
		t.Fatalf("second pass changed state: %v", stats)
	}
}

func TestFileUpdatePropagatesByDominance(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "v1")
	reconcileBoth(t, a, b)
	// Update on b only; a must adopt it.
	write(t, b, "f", "v2 from b")
	if _, err := ReconcileVolume(a, b); err != nil {
		t.Fatal(err)
	}
	if got, _ := read(t, a, "f"); got != "v2 from b" {
		t.Fatalf("a sees %q", got)
	}
	if len(a.Conflicts()) != 0 {
		t.Fatalf("false conflict: %+v", a.Conflicts())
	}
}

func TestConcurrentFileUpdateIsConflict(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "doc", "base")
	reconcileBoth(t, a, b)
	// Partitioned updates on both replicas.
	write(t, a, "doc", "a's edit")
	write(t, b, "doc", "b's edit")
	sa, sb := reconcileBoth(t, a, b)
	if sa.Conflicts != 1 || sb.Conflicts != 1 {
		t.Fatalf("conflicts: %v / %v", sa, sb)
	}
	// Data untouched on both sides: the system must not silently pick a
	// winner for regular files.
	if got, _ := read(t, a, "doc"); got != "a's edit" {
		t.Fatalf("a's data clobbered: %q", got)
	}
	if got, _ := read(t, b, "doc"); got != "b's edit" {
		t.Fatalf("b's data clobbered: %q", got)
	}
	// The conflict is reported to the owner exactly once per side even
	// after repeated reconciliation.
	reconcileBoth(t, a, b)
	if len(a.Conflicts()) != 1 || len(b.Conflicts()) != 1 {
		t.Fatalf("conflict log: a=%d b=%d", len(a.Conflicts()), len(b.Conflicts()))
	}
}

func TestConflictResolution(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "doc", "base")
	reconcileBoth(t, a, b)
	write(t, a, "doc", "a's edit")
	write(t, b, "doc", "b's edit")
	reconcileBoth(t, a, b)
	c := a.Conflicts()[0]
	if err := Resolve(a, c, []byte("merged by owner")); err != nil {
		t.Fatal(err)
	}
	a.ClearConflicts()
	b.ClearConflicts()
	// The resolution dominates both histories, so it propagates cleanly.
	sa, sb := reconcileBoth(t, a, b)
	if sa.Conflicts+sb.Conflicts != 0 {
		t.Fatalf("resolution re-conflicted: %v %v", sa, sb)
	}
	if got, _ := read(t, b, "doc"); got != "merged by owner" {
		t.Fatalf("b sees %q", got)
	}
}

// TestConflictOutlivesAnInSyncPeer: A's edit conflicts with B's, and C holds
// A's.  Reconciling A with B logs the conflict; reconciling A with C, which
// agrees with A, must leave it logged — agreeing with one replica settles
// nothing with another.  B's owner then resolves it, and the resolution
// clears A's log whichever way it arrives.
func TestConflictOutlivesAnInSyncPeer(t *testing.T) {
	for _, via := range []string{"propagation", "reconciliation"} {
		a, b, c := newReplica(t, 1), newReplica(t, 2), newReplica(t, 3)
		write(t, a, "f", "base")
		reconcileBoth(t, a, b)
		reconcileBoth(t, a, c)
		write(t, a, "f", "a's edit")
		write(t, b, "f", "b's edit")
		reconcileBoth(t, c, a)
		reconcileBoth(t, a, b)
		if _, err := ReconcileVolume(a, c); err != nil {
			t.Fatal(err)
		}
		if n := len(a.Conflicts()); n != 1 {
			t.Fatalf("%s: A logs %d conflicts after reconciling with an in-sync peer, want 1", via, n)
		}
		if err := Resolve(b, b.Conflicts()[0], []byte("resolved")); err != nil {
			t.Fatal(err)
		}
		if via == "propagation" {
			a.NoteNewVersion(physical.RootPath(), fidOf(t, b, "f"), b.Replica())
			if _, err := PropagateOnce(a, func(ids.ReplicaID) Peer { return b }); err != nil {
				t.Fatal(err)
			}
		} else if _, err := ReconcileVolume(a, b); err != nil {
			t.Fatal(err)
		}
		if n := len(a.Conflicts()); n != 0 {
			t.Fatalf("%s: A still logs %d conflicts after the resolution arrived", via, n)
		}
		if got, _ := read(t, a, "f"); got != "resolved" {
			t.Fatalf("%s: A reads %q", via, got)
		}
	}
}

// TestRescanCountsAFailedPass: a pass that reaches its peer and then fails —
// the peer's file does not fit the local disk — counts one in Failures and
// none in the clean count, so a caller does not take the round for a quiet one.
func TestRescanCountsAFailedPass(t *testing.T) {
	fs, err := ufs.Mkfs(disk.New(256), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	local, err := physical.Format(ufsvn.New(fs), testVol, 1)
	if err != nil {
		t.Fatal(err)
	}
	remote := newReplica(t, 2)
	write(t, remote, "big", strings.Repeat("x", 300*ufs.BlockSize))
	var passErr error
	stats, clean := Rescan(local, func(ids.ReplicaID) Peer { return remote }, []ids.ReplicaID{1, 2},
		func(_ ids.ReplicaID, reached bool, err error) {
			if !reached {
				t.Fatal("the peer was not reached")
			}
			passErr = err
		})
	if vnode.AsErrno(passErr) != vnode.ENOSPC {
		t.Fatalf("pass error %v, want ENOSPC", passErr)
	}
	if clean != 0 || stats.Failures != 1 {
		t.Fatalf("clean passes %d, stats %v; want 0 clean and 1 failure", clean, stats)
	}
}

func TestDirectoryConflictAutoRepaired(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "report", "from a")
	write(t, b, "report", "from b")
	sa, sb := reconcileBoth(t, a, b)
	if sa.Conflicts+sb.Conflicts != 0 {
		t.Fatal("directory name collision must not be a file conflict")
	}
	if sa.NameRepairs == 0 && sb.NameRepairs == 0 {
		t.Fatalf("no name repair recorded: %v %v", sa, sb)
	}
	reconcileBoth(t, a, b) // second round pulls the file data adopted in round one
	if treeDump(t, a) != treeDump(t, b) {
		t.Fatalf("diverged:\nA:\n%s\nB:\n%s", treeDump(t, a), treeDump(t, b))
	}
	// Both versions of the data survive under distinct names.
	dump := treeDump(t, a)
	if !strings.Contains(dump, `"from a"`) || !strings.Contains(dump, `"from b"`) {
		t.Fatalf("data lost in repair:\n%s", dump)
	}
}

func TestDeleteWinsAcrossSubtree(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	rootA, _ := a.Root()
	vnode.MkdirAll(rootA, "dir")
	write(t, a, "dir/f", "data")
	reconcileBoth(t, a, b)
	if got, _ := read(t, b, "dir/f"); got != "data" {
		t.Fatalf("setup failed: %q", got)
	}
	// Delete the file on b, reconcile: a must apply the delete.
	rootB, _ := b.Root()
	dirB, _ := rootB.Lookup("dir")
	if err := dirB.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReconcileVolume(a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := read(t, a, "dir/f"); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("delete did not propagate: %v", err)
	}
}

func TestReconcileSkipsUnstoredRemote(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "x")
	// b reconciles FROM a; then wipe... instead simulate: a pulls from b
	// where b stores nothing extra — must be a clean no-op.
	stats, err := ReconcileVolume(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed() {
		t.Fatalf("pull from empty peer changed local: %v", stats)
	}
}

func TestPropagateOnceInstallsAnnouncedVersion(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "v1")
	reconcileBoth(t, a, b)
	write(t, a, "f", "v2")
	// a's logical layer would multicast; simulate the notification arriving
	// at b.
	fid := fidOf(t, a, "f")
	b.NoteNewVersion(physical.RootPath(), fid, 1)
	find := func(r ids.ReplicaID) Peer {
		if r == 1 {
			return a
		}
		return nil
	}
	stats, err := PropagateOnce(b, find)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 1 {
		t.Fatalf("stats %v", stats)
	}
	if got, _ := read(t, b, "f"); got != "v2" {
		t.Fatalf("b sees %q", got)
	}
	if len(b.PendingVersions()) != 0 {
		t.Fatal("notification not drained")
	}
}

func TestPropagateKeepsPendingWhenUnreachable(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "v1")
	reconcileBoth(t, a, b)
	write(t, a, "f", "v2")
	b.NoteNewVersion(physical.RootPath(), fidOf(t, a, "f"), 1)
	stats, err := PropagateOnce(b, func(ids.ReplicaID) Peer { return nil })
	if err != nil || stats.FilesPulled != 0 {
		t.Fatalf("%v %v", stats, err)
	}
	if len(b.PendingVersions()) != 1 {
		t.Fatal("pending entry dropped while origin unreachable")
	}
}

func TestPropagateDropsStaleNews(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "v1")
	reconcileBoth(t, a, b)
	// b already has v1; a re-announces it.
	b.NoteNewVersion(physical.RootPath(), fidOf(t, a, "f"), 1)
	stats, err := PropagateOnce(b, func(ids.ReplicaID) Peer { return a })
	if err != nil || stats.FilesPulled != 0 {
		t.Fatalf("%v %v", stats, err)
	}
	if len(b.PendingVersions()) != 0 {
		t.Fatal("stale notification not dropped")
	}
}

func TestPropagateDetectsConflict(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "base")
	reconcileBoth(t, a, b)
	write(t, a, "f", "a edit")
	write(t, b, "f", "b edit")
	b.NoteNewVersion(physical.RootPath(), fidOf(t, a, "f"), 1)
	stats, err := PropagateOnce(b, func(ids.ReplicaID) Peer { return a })
	if err != nil || stats.Conflicts != 1 {
		t.Fatalf("%v %v", stats, err)
	}
	if got, _ := read(t, b, "f"); got != "b edit" {
		t.Fatalf("conflicting data clobbered: %q", got)
	}
	if len(b.Conflicts()) != 1 {
		t.Fatal("conflict not reported")
	}
}

func TestPropagateDirectoryNotification(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	rootA, _ := a.Root()
	d, err := rootA.Mkdir("d")
	if err != nil {
		t.Fatal(err)
	}
	reconcileBoth(t, a, b)
	// New file appears inside d on a; b is notified about the DIRECTORY.
	if _, err := d.Create("inner", true); err != nil {
		t.Fatal(err)
	}
	dirFid := fidOf(t, a, "d")
	b.NoteNewVersion(physical.RootPath(), dirFid, 1)
	stats, err := PropagateOnce(b, func(ids.ReplicaID) Peer { return a })
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesAdopted == 0 {
		t.Fatalf("directory notification did not replay entries: %v", stats)
	}
	rootB, _ := b.Root()
	if _, err := vnode.Walk(rootB, "d/inner"); err != nil {
		t.Fatalf("b missing d/inner: %v", err)
	}
}

func fidOf(t *testing.T, l *physical.Layer, path string) ids.FileID {
	t.Helper()
	root, _ := l.Root()
	v, err := vnode.Walk(root, path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := v.Getattr()
	if err != nil {
		t.Fatal(err)
	}
	fid, err := ids.ParseFileID(a.FileID)
	if err != nil {
		t.Fatal(err)
	}
	return fid
}

// TestGossipConvergenceProperty: N replicas, random partitioned updates,
// then a few rounds of pairwise reconciliation along a ring; all replicas
// must converge to identical trees and identical version vectors, with any
// genuinely concurrent file updates surfacing as conflicts rather than
// silent divergence of directory state.
func TestGossipConvergenceProperty(t *testing.T) {
	const n = 4
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reps := make([]*physical.Layer, n)
		for i := range reps {
			reps[i] = newReplica(t, ids.ReplicaID(i+1))
		}
		// Shared base state.
		write(t, reps[0], "common", "base")
		for i := 1; i < n; i++ {
			if _, err := ReconcileVolume(reps[i], reps[0]); err != nil {
				t.Fatal(err)
			}
		}
		// Partitioned chaos: every replica does its own thing.
		for i, l := range reps {
			root, _ := l.Root()
			for k := 0; k < 10; k++ {
				switch rng.Intn(3) {
				case 0:
					write(t, l, fmt.Sprintf("file-%d-%d", i, rng.Intn(4)), fmt.Sprintf("r%d", i))
				case 1:
					root.Mkdir(fmt.Sprintf("dir-%d", rng.Intn(3)))
				case 2:
					write(t, l, fmt.Sprintf("shared-%d", rng.Intn(3)), fmt.Sprintf("by %d", i))
				}
			}
		}
		// Gossip rounds around the ring.
		for round := 0; round < n+1; round++ {
			for i := range reps {
				j := (i + 1) % n
				if _, err := ReconcileVolume(reps[i], reps[j]); err != nil {
					t.Fatal(err)
				}
				if _, err := ReconcileVolume(reps[j], reps[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// All directory STRUCTURE identical (file conflict contents may
		// legitimately differ, so compare names only).
		var dumps []string
		for _, l := range reps {
			dumps = append(dumps, namesDump(t, l))
		}
		for i := 1; i < n; i++ {
			if dumps[i] != dumps[0] {
				t.Fatalf("seed %d: replica %d structure diverged:\n%s\nvs:\n%s", seed, i+1, dumps[0], dumps[i])
			}
		}
	}
}

func namesDump(t *testing.T, l *physical.Layer) string {
	t.Helper()
	root, err := l.Root()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(v vnode.Vnode, prefix string)
	walk = func(v vnode.Vnode, prefix string) {
		ents, err := v.Readdir()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			lines = append(lines, prefix+e.Name)
			if e.Type == vnode.VDir {
				c, err := v.Lookup(e.Name)
				if vnode.AsErrno(err) == vnode.ENOSTOR {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				walk(c, prefix+e.Name+"/")
			}
		}
	}
	walk(root, "")
	return strings.Join(lines, "\n")
}

func TestStatsStringAndAdd(t *testing.T) {
	s := Stats{DirsVisited: 1, FilesPulled: 2}
	s.Add(Stats{DirsVisited: 2, Conflicts: 1})
	if s.DirsVisited != 3 || s.Conflicts != 1 || s.FilesPulled != 2 {
		t.Fatalf("%+v", s)
	}
	if !strings.Contains(s.String(), "pulled=2") {
		t.Fatalf("%q", s.String())
	}
	if !s.Changed() {
		t.Fatal("Changed() = false")
	}
}

// TestInstallPreservesVVExactly guards the invariant that a pulled file
// carries the remote vector verbatim, so a third replica comparing vectors
// sees equality, not concurrency.
func TestInstallPreservesVVExactly(t *testing.T) {
	a, b := newReplica(t, 1), newReplica(t, 2)
	write(t, a, "f", "x")
	if _, err := ReconcileVolume(b, a); err != nil {
		t.Fatal(err)
	}
	fid := fidOf(t, a, "f")
	sa, err := a.FileInfo(physical.RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.FileInfo(physical.RootPath(), fid)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Aux.VV.Compare(sb.Aux.VV) != vv.Equal {
		t.Fatalf("vectors differ after pull: %v vs %v", sa.Aux.VV, sb.Aux.VV)
	}
	if !bytes.Equal([]byte("x"), []byte("x")) {
		t.Fatal("unreachable")
	}
}
