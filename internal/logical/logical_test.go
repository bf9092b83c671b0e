package logical

import (
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
	"repro/internal/vnode"
	"repro/internal/vntest"
)

var testVol = ids.VolumeHandle{Allocator: 3, Volume: 1}

func newPhysical(t *testing.T, r ids.ReplicaID) *physical.Layer {
	t.Helper()
	fs, err := ufs.Mkfs(disk.New(16384), 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := physical.Format(ufsvn.New(fs), testVol, r)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// rig is the full paper Figure 1 stack: a logical layer over one
// co-resident physical replica plus one remote replica reached through NFS.
type rig struct {
	net      *simnet.Network
	lA, lB   *physical.Layer
	logical  *Layer
	notified []notifyRec
}

type notifyRec struct {
	dir    []ids.FileID
	file   ids.FileID
	origin ids.ReplicaID
}

func newRig(t *testing.T, policy Policy) *rig {
	t.Helper()
	return newRigWith(t, policy, &nfs.ClientOptions{DisableCaches: true})
}

// newRigWith is newRig with the NFS client's caches as copts sets them (nil:
// the defaults, caches on).
func newRigWith(t *testing.T, policy Policy, copts *nfs.ClientOptions) *rig {
	t.Helper()
	r := &rig{net: simnet.New(1)}
	hostA := r.net.Host("a")
	hostB := r.net.Host("b")
	r.lA = newPhysical(t, 1)
	r.lB = newPhysical(t, 2)
	nfs.Serve(hostB, r.lB, r.lB)
	client := nfs.Dial(hostA, "b", copts)
	r.logical = New(testVol, []Replica{
		{ID: 1, FS: r.lA},
		{ID: 2, FS: client},
	}, Options{
		Policy: policy,
		Notify: func(dir []ids.FileID, file ids.FileID, origin ids.ReplicaID) {
			r.notified = append(r.notified, notifyRec{dir: dir, file: file, origin: origin})
		},
	})
	return r
}

func (r *rig) root(t *testing.T) vnode.Vnode {
	t.Helper()
	root, err := r.logical.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// sync brings the two physical replicas together (what the reconciliation
// daemon would do).
func (r *rig) sync(t *testing.T) {
	t.Helper()
	if _, err := recon.ReconcileVolume(r.lA, r.lB); err != nil {
		t.Fatal(err)
	}
	if _, err := recon.ReconcileVolume(r.lB, r.lA); err != nil {
		t.Fatal(err)
	}
}

// TestConformanceSingleReplica runs the suite over a logical layer with one
// co-resident replica.
func TestConformanceSingleReplica(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: MaxName},
		func(t *testing.T) vnode.VFS {
			return New(testVol, []Replica{{ID: 1, FS: newPhysical(t, 1)}}, Options{})
		})
}

// TestConformanceFullStack runs the suite over the complete two-replica
// stack of Figure 1 — logical over {physical, NFS->physical} — proving the
// replication service composes transparently from the same vnode interface.
func TestConformanceFullStack(t *testing.T) {
	vntest.Run(t, vntest.Config{MaxName: MaxName},
		func(t *testing.T) vnode.VFS { return newRig(t, MostRecent).logical })
}

func TestWriteGoesToOneReplicaAndNotifies(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("solo"), 0); err != nil {
		t.Fatal(err)
	}
	// The co-resident replica (first in order) has the data...
	pa, _ := r.lA.Root()
	va, err := pa.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := vnode.ReadFile(va)
	if string(data) != "solo" {
		t.Fatalf("replica A: %q", data)
	}
	// ... the remote one does not (yet).
	pb, _ := r.lB.Root()
	if _, err := pb.Lookup("f"); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("replica B unexpectedly has the file: %v", err)
	}
	// Notifications were emitted for the create (dir) and the write (file).
	if len(r.notified) != 2 {
		t.Fatalf("%d notifications: %+v", len(r.notified), r.notified)
	}
	if r.notified[0].file != ids.RootFileID || r.notified[0].origin != 1 {
		t.Fatalf("create notification %+v", r.notified[0])
	}
	if r.notified[1].origin != 1 || r.notified[1].file == ids.RootFileID {
		t.Fatalf("write notification %+v", r.notified[1])
	}
}

// TestOneCopyAvailabilityUnderPartition is the paper's headline behaviour
// (§1): update succeeds "if any copy of a file is accessible".
func TestOneCopyAvailabilityUnderPartition(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	r.sync(t)

	// Partition away the remote replica; updates must still succeed on the
	// local copy.
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	f, err := root.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("during partition"), 0); err != nil {
		t.Fatalf("update with one replica accessible failed: %v", err)
	}
	// Reads too.
	data, err := vnode.ReadFile(f)
	if err != nil || string(data) != "during partition" {
		t.Fatalf("%q %v", data, err)
	}
}

// TestFailoverToRemoteReplica: the local replica does not store the file;
// the logical layer silently uses the remote copy.
func TestFailoverToRemoteReplica(t *testing.T) {
	r := newRig(t, FirstAvailable)
	// Create a file only on B (behind the logical layer's back).
	pb, _ := r.lB.Root()
	fb, err := pb.Create("remote-only", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(fb, []byte("via nfs")); err != nil {
		t.Fatal(err)
	}
	// Reconcile only the DIRECTORY entry into A, leaving the data remote:
	// easiest is a full reconcile then delete A's local data copy — instead
	// simulate by merging entries only.
	db, err := r.lB.DirEntries(physical.RootPath())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.lA.ApplyDirMerge(physical.RootPath(), db); err != nil {
		t.Fatal(err)
	}
	// A knows the name but stores no copy; the logical layer must fall
	// over to B.
	root := r.root(t)
	f, err := root.Lookup("remote-only")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	data, err := vnode.ReadFile(f)
	if err != nil || string(data) != "via nfs" {
		t.Fatalf("%q %v", data, err)
	}
}

// TestMostRecentSelection: after an update lands on one replica, the
// default policy reads the newest copy even when an older one is closer.
func TestMostRecentSelection(t *testing.T) {
	r := newRig(t, MostRecent)
	root := r.root(t)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	r.sync(t)
	// Update B directly (as if another host's logical layer wrote there).
	pb, _ := r.lB.Root()
	vb, _ := pb.Lookup("f")
	if err := vnode.WriteFile(vb, []byte("v2 at B")); err != nil {
		t.Fatal(err)
	}
	// MostRecent must pick B's copy despite A being first.
	data, err := vnode.ReadFile(f)
	if err != nil || string(data) != "v2 at B" {
		t.Fatalf("read %q, %v (most-recent selection failed)", data, err)
	}
	// FirstAvailable (the ablation) would serve the stale local copy.
	lfa := New(testVol, r.logical.Replicas(), Options{Policy: FirstAvailable})
	rootFA, _ := lfa.Root()
	fFA, err := rootFA.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = vnode.ReadFile(fFA)
	if string(data) != "v1" {
		t.Fatalf("FirstAvailable read %q, want stale v1", data)
	}
}

// TestOpenCloseReachPhysicalThroughNFS is the end-to-end §2.3 story: NFS
// swallows Open, so the logical layer re-encodes it through Lookup, and the
// remote physical layer's open bookkeeping still advances.
func TestOpenCloseReachPhysicalThroughNFS(t *testing.T) {
	r := newRig(t, FirstAvailable)
	// Put the file only on B so the logical layer must use the NFS path.
	pb, _ := r.lB.Root()
	if _, err := pb.Create("f", true); err != nil {
		t.Fatal(err)
	}
	db, _ := r.lB.DirEntries(physical.RootPath())
	if _, err := r.lA.ApplyDirMerge(physical.RootPath(), db); err != nil {
		t.Fatal(err)
	}
	root := r.root(t)
	f, err := root.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if got := r.lB.TotalOpens(); got != 1 {
		t.Fatalf("remote physical layer saw %d opens, want 1", got)
	}
	if err := f.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if got := r.lB.OpenFiles(); got != 0 {
		t.Fatalf("open files after close: %d", got)
	}
}

// TestEveryOpenReachesPhysicalThroughCachingNFS: with the client's caches on,
// N open/close pairs inside the name cache's lifetime are N opens below.
func TestEveryOpenReachesPhysicalThroughCachingNFS(t *testing.T) {
	r := newRigWith(t, FirstAvailable, nil)
	pb, _ := r.lB.Root()
	if _, err := pb.Create("f", true); err != nil {
		t.Fatal(err)
	}
	db, _ := r.lB.DirEntries(physical.RootPath())
	if _, err := r.lA.ApplyDirMerge(physical.RootPath(), db); err != nil {
		t.Fatal(err)
	}
	f, err := r.root(t).Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 5
	for i := 0; i < pairs; i++ {
		if err := f.Open(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(vnode.OpenRead); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.lB.TotalOpens(); got != pairs {
		t.Fatalf("remote physical layer saw %d opens, want %d", got, pairs)
	}
	if got := r.lB.OpenFiles(); got != 0 {
		t.Fatalf("open files after the last close: %d", got)
	}
}

func TestNameBudgetEnforced(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	ok := strings.Repeat("n", MaxName)
	if _, err := root.Create(ok, true); err != nil {
		t.Fatalf("max-len create: %v", err)
	}
	long := ok + "x"
	if _, err := root.Create(long, true); vnode.AsErrno(err) != vnode.ENAMETOOLONG {
		t.Fatalf("over-long create: %v", err)
	}
	if _, err := root.Lookup(long); vnode.AsErrno(err) != vnode.ENAMETOOLONG {
		t.Fatalf("over-long lookup: %v", err)
	}
	// The budget exists because the encoding must fit the substrate field.
	if MaxName+physical.EncOverhead != physical.SubstrateMaxName {
		t.Fatalf("budget arithmetic: %d + %d != %d", MaxName, physical.EncOverhead, physical.SubstrateMaxName)
	}
}

func TestAllReplicasUnreachable(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	if _, err := root.Create("f", true); err != nil {
		t.Fatal(err)
	}
	r.sync(t)
	// Logical layer whose only replica is the remote one, then partition.
	remoteOnly := New(testVol, []Replica{r.logical.Replicas()[1]}, Options{})
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	ro, _ := remoteOnly.Root()
	if _, err := ro.Lookup("f"); vnode.AsErrno(err) != vnode.EUNAVAIL {
		t.Fatalf("err = %v, want EUNAVAIL", err)
	}
	if _, err := ro.Readdir(); vnode.AsErrno(err) != vnode.EUNAVAIL {
		t.Fatalf("readdir: %v, want EUNAVAIL", err)
	}
}

func TestEnoentBeatsUnavailInErrors(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	// Both replicas reachable, file exists nowhere: ENOENT, not EUNAVAIL.
	if _, err := root.Lookup("ghost"); vnode.AsErrno(err) != vnode.ENOENT {
		t.Fatalf("err = %v, want ENOENT", err)
	}
}

func TestGraftHookIntercepted(t *testing.T) {
	inner := newPhysical(t, 9) // pretend this is the grafted volume
	innerVol := ids.VolumeHandle{Allocator: 3, Volume: 2}
	var hookTarget ids.VolumeHandle
	hook := func(target ids.VolumeHandle, gp vnode.Vnode) (vnode.Vnode, error) {
		hookTarget = target
		return inner.Root()
	}
	lp := newPhysical(t, 1)
	lay := New(testVol, []Replica{{ID: 1, FS: lp}}, Options{Graft: hook})
	// Plant a graft point in the physical layer.
	proot, _ := lp.Root()
	type grafter interface {
		MkGraft(name string, target ids.VolumeHandle) (vnode.Vnode, error)
	}
	if _, err := proot.(grafter).MkGraft("mnt", innerVol); err != nil {
		t.Fatal(err)
	}
	// Drop a file into the "grafted volume".
	ir, _ := inner.Root()
	if _, err := ir.Create("inside", true); err != nil {
		t.Fatal(err)
	}
	root, _ := lay.Root()
	mnt, err := root.Lookup("mnt")
	if err != nil {
		t.Fatal(err)
	}
	if hookTarget != innerVol {
		t.Fatalf("hook target %v", hookTarget)
	}
	// The returned vnode is the grafted volume's root.
	if _, err := mnt.Lookup("inside"); err != nil {
		t.Fatalf("lookup through graft: %v", err)
	}
	// Without a hook, the graft point is just a directory.
	lay2 := New(testVol, []Replica{{ID: 1, FS: lp}}, Options{})
	root2, _ := lay2.Root()
	mnt2, err := root2.Lookup("mnt")
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := mnt2.Readdir(); err != nil || len(ents) != 0 {
		t.Fatalf("bare graft point: %v %v", ents, err)
	}
}

func TestRenameNotifiesBothDirectories(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	d1, _ := root.Mkdir("d1")
	d2, _ := root.Mkdir("d2")
	if _, err := d1.Create("f", true); err != nil {
		t.Fatal(err)
	}
	r.notified = nil
	if err := d1.Rename("f", d2, "g"); err != nil {
		t.Fatal(err)
	}
	if len(r.notified) != 2 {
		t.Fatalf("%d notifications, want 2 (both dirs): %+v", len(r.notified), r.notified)
	}
	if r.notified[0].file == r.notified[1].file {
		t.Fatal("both notifications name the same directory")
	}
}

func TestConcurrencyControlSerializesWriters(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	f, _ := root.Create("f", true)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			buf := []byte{byte(g)}
			for i := 0; i < 50; i++ {
				if _, err := f.WriteAt(buf, int64(i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	a, err := f.Getattr()
	if err != nil || a.Size != 50 {
		t.Fatalf("size %d, %v", a.Size, err)
	}
}

func TestHandleShape(t *testing.T) {
	r := newRig(t, FirstAvailable)
	root := r.root(t)
	d, _ := root.Mkdir("d")
	if !strings.HasPrefix(d.Handle(), "ficus:") || !strings.Contains(d.Handle(), "/d") {
		t.Fatalf("handle %q", d.Handle())
	}
	if r.logical.Volume() != testVol {
		t.Fatal("Volume() wrong")
	}
	if len(r.logical.Replicas()) != 2 {
		t.Fatal("Replicas() wrong")
	}
}
