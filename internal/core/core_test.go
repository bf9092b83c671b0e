package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// cluster is a 3-host rig with one volume replicated on all three.
type cluster struct {
	net   *simnet.Network
	hosts []*Host
	vol   ids.VolumeHandle
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{net: simnet.New(1)}
	for i := 0; i < n; i++ {
		addr := simnet.Addr(string(rune('a' + i)))
		c.hosts = append(c.hosts, NewHost(c.net, addr, ids.AllocatorID(i+1)))
	}
	vol, rid, err := c.hosts[0].CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.vol = vol
	locs := []ReplicaLoc{{ID: rid, Addr: c.hosts[0].Addr()}}
	for i := 1; i < n; i++ {
		newID := ids.ReplicaID(i + 1)
		if err := c.hosts[i].AddReplica(vol, newID, locs[0], nil); err != nil {
			t.Fatal(err)
		}
		locs = append(locs, ReplicaLoc{ID: newID, Addr: c.hosts[i].Addr()})
	}
	for _, h := range c.hosts {
		h.SetLocations(vol, locs)
	}
	return c
}

func (c *cluster) mount(t *testing.T, i int) vnode.Vnode {
	t.Helper()
	lay, err := c.hosts[i].Mount(c.vol, logical.MostRecent)
	if err != nil {
		t.Fatal(err)
	}
	root, err := lay.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func (c *cluster) settle(t *testing.T) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, h := range c.hosts {
			if _, err := h.ReconcileOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCreateVolumeAndMount(t *testing.T) {
	c := newCluster(t, 3)
	root := c.mount(t, 0)
	f, err := root.Create("hello", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("world")); err != nil {
		t.Fatal(err)
	}
	// Visible from another host immediately (read-through to the newest
	// copy under MostRecent).
	root1 := c.mount(t, 1)
	g, err := root1.Lookup("hello")
	if err != nil {
		t.Fatal(err)
	}
	data, err := vnode.ReadFile(g)
	if err != nil || string(data) != "world" {
		t.Fatalf("%q %v", data, err)
	}
}

func TestVolumeHandlesDistinctAcrossAllocators(t *testing.T) {
	net := simnet.New(1)
	h1 := NewHost(net, "x", 100)
	h2 := NewHost(net, "y", 200)
	v1, _, err := h1.CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := h2.CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	v3, _, err := h1.CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 || v1 == v3 || v2 == v3 {
		t.Fatalf("volume handles collide: %v %v %v", v1, v2, v3)
	}
}

func TestNotificationAndPropagation(t *testing.T) {
	c := newCluster(t, 3)
	root := c.mount(t, 0)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	// Hosts b and c received notifications into their new-version caches.
	if gb, gc := c.hosts[1].GossipStats(), c.hosts[2].GossipStats(); gb.NotificationsSeen == 0 || gc.NotificationsSeen == 0 {
		t.Fatalf("notifications: b=%d c=%d", gb.NotificationsSeen, gc.NotificationsSeen)
	}
	pending := c.hosts[1].LocalReplicas()[0].PendingVersions()
	if len(pending) == 0 {
		t.Fatal("no pending versions on host b")
	}
	// The propagation daemon pulls the new version.
	stats, err := c.hosts[1].PropagateOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Changed() {
		t.Fatalf("propagation pulled nothing: %v", stats)
	}
	lb := c.hosts[1].LocalReplicas()[0]
	pb, _ := lb.Root()
	vb, err := pb.Lookup("f")
	if err != nil {
		t.Fatalf("replica b missing f after propagation: %v", err)
	}
	data, _ := vnode.ReadFile(vb)
	if string(data) != "v1" {
		t.Fatalf("replica b has %q", data)
	}
}

func TestPartitionedUpdateThenReconcile(t *testing.T) {
	c := newCluster(t, 2)
	rootA := c.mount(t, 0)
	if _, err := rootA.Create("doc", true); err != nil {
		t.Fatal(err)
	}
	c.settle(t)

	// Partition; both sides update the same file.
	c.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	fA, err := rootA.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fA.WriteAt([]byte("side a"), 0); err != nil {
		t.Fatalf("partitioned update on a: %v", err)
	}
	rootB := c.mount(t, 1)
	fB, err := rootB.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fB.WriteAt([]byte("side b"), 0); err != nil {
		t.Fatalf("partitioned update on b: %v", err)
	}

	// Heal and reconcile: the conflict must surface on both hosts' logs.
	c.net.Heal()
	c.settle(t)
	confA := c.hosts[0].LocalReplicas()[0].Conflicts()
	confB := c.hosts[1].LocalReplicas()[0].Conflicts()
	if len(confA) != 1 || len(confB) != 1 {
		t.Fatalf("conflicts a=%d b=%d", len(confA), len(confB))
	}
}

func TestPartitionedDirectoryUpdatesAutoRepair(t *testing.T) {
	c := newCluster(t, 2)
	c.settle(t)
	c.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	rootA := c.mount(t, 0)
	rootB := c.mount(t, 1)
	if _, err := rootA.Create("new", true); err != nil {
		t.Fatal(err)
	}
	if _, err := rootB.Create("new", true); err != nil {
		t.Fatal(err)
	}
	c.net.Heal()
	c.settle(t)
	entsA, _ := rootA.Readdir()
	entsB, _ := rootB.Readdir()
	if len(entsA) != 2 || len(entsB) != 2 {
		t.Fatalf("auto-repair failed: a=%v b=%v", entsA, entsB)
	}
	// No file conflicts were logged for the directory collision.
	if n := len(c.hosts[0].LocalReplicas()[0].Conflicts()); n != 0 {
		t.Fatalf("%d spurious file conflicts", n)
	}
}

func TestAddReplicaRequiresReachableSeed(t *testing.T) {
	c := newCluster(t, 2)
	h3 := NewHost(c.net, "z", 99)
	c.net.Partition([]simnet.Addr{"z"}, []simnet.Addr{"a", "b"})
	err := h3.AddReplica(c.vol, 9, ReplicaLoc{ID: 1, Addr: "a"}, nil)
	if err == nil {
		t.Fatal("AddReplica succeeded with unreachable seed")
	}
	c.net.Heal()
	if err := h3.AddReplica(c.vol, 9, ReplicaLoc{ID: 1, Addr: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	if h3.LocalReplica(c.vol) == nil {
		t.Fatal("replica not stored")
	}
}

func TestMountUnknownVolume(t *testing.T) {
	c := newCluster(t, 1)
	ghost := ids.VolumeHandle{Allocator: 42, Volume: 42}
	if _, err := c.hosts[0].Mount(ghost, logical.MostRecent); !errors.Is(err, ErrUnknownVolume) {
		t.Fatalf("err = %v", err)
	}
}

func TestAccessorPlumbing(t *testing.T) {
	c := newCluster(t, 2)
	h := c.hosts[0]
	if h.Addr() != "a" || h.Allocator() != 1 || h.SimHost() == nil {
		t.Fatal("identity accessors")
	}
	reps := h.LocalReplicas()
	if len(reps) != 1 {
		t.Fatalf("replicas %v", reps)
	}
	vr := reps[0].VolumeReplica()
	if h.Device(vr) == nil || h.UFS(vr) == nil {
		t.Fatal("storage accessors")
	}
	if h.Device(ids.VolumeReplicaHandle{}) != nil || h.UFS(ids.VolumeReplicaHandle{}) != nil {
		t.Fatal("bogus handles should return nil")
	}
	locs := h.Locations(c.vol)
	if len(locs) != 2 || locs[0].ID != 1 || locs[1].ID != 2 {
		t.Fatalf("locations %v", locs)
	}
}

// --- Volumes and autografting -------------------------------------------

// graftRig: volume "root" on hosts a+b; volume "proj" on host b only; a
// graft point /proj in the root volume targets it.
type graftRig struct {
	*cluster
	proj ids.VolumeHandle
}

func newGraftRig(t *testing.T) *graftRig {
	t.Helper()
	c := newCluster(t, 2)
	proj, prid, err := c.hosts[1].CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Put a file inside the project volume.
	projLay, err := c.hosts[1].Mount(proj, logical.MostRecent)
	if err != nil {
		t.Fatal(err)
	}
	projRoot, _ := projLay.Root()
	f, err := projRoot.Create("readme", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("project docs")); err != nil {
		t.Fatal(err)
	}
	// Graft point in the root volume (created at host a's replica).
	err = c.hosts[0].CreateGraftPoint(c.vol, "/", "proj", proj,
		[]ReplicaLoc{{ID: prid, Addr: c.hosts[1].Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	c.settle(t)
	return &graftRig{cluster: c, proj: proj}
}

func TestAutograftAcrossHosts(t *testing.T) {
	r := newGraftRig(t)
	// Host a walks into /proj: the graft point must be intercepted, the
	// volume located from the graft-table entries and grafted on the fly.
	rootA := r.mount(t, 0)
	if len(r.hosts[0].GraftedVolumes()) != 0 {
		t.Fatal("graft table not empty before first walk")
	}
	inside, err := vnode.Walk(rootA, "proj/readme")
	if err != nil {
		t.Fatalf("walk through graft point: %v", err)
	}
	data, err := vnode.ReadFile(inside)
	if err != nil || string(data) != "project docs" {
		t.Fatalf("%q %v", data, err)
	}
	if len(r.hosts[0].GraftedVolumes()) != 1 {
		t.Fatal("volume not recorded in graft table")
	}
	// Second walk reuses the graft.
	if _, err := vnode.Walk(rootA, "proj/readme"); err != nil {
		t.Fatal(err)
	}
}

func TestAutograftPropagatesThroughReconciliation(t *testing.T) {
	r := newGraftRig(t)
	// Host b never saw CreateGraftPoint (it ran on a), but reconciliation
	// of the root volume carried the graft point and its table rows.
	rootB := r.mount(t, 1)
	inside, err := vnode.Walk(rootB, "proj/readme")
	if err != nil {
		t.Fatalf("host b walk through reconciled graft point: %v", err)
	}
	data, _ := vnode.ReadFile(inside)
	if string(data) != "project docs" {
		t.Fatalf("%q", data)
	}
}

func TestAutograftFailsWhenVolumeUnreachable(t *testing.T) {
	r := newGraftRig(t)
	r.net.Partition([]simnet.Addr{"a"}, []simnet.Addr{"b"})
	rootA := r.mount(t, 0)
	_, err := vnode.Walk(rootA, "proj/readme")
	if err == nil {
		t.Fatal("walk succeeded with volume host partitioned away")
	}
	if len(r.hosts[0].GraftedVolumes()) != 0 {
		t.Fatal("unreachable volume cached in graft table")
	}
	// Heal: the walk now succeeds (autograft retries).
	r.net.Heal()
	if _, err := vnode.Walk(rootA, "proj/readme"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestGraftPruning(t *testing.T) {
	r := newGraftRig(t)
	rootA := r.mount(t, 0)
	if _, err := vnode.Walk(rootA, "proj/readme"); err != nil {
		t.Fatal(err)
	}
	if len(r.hosts[0].GraftedVolumes()) != 1 {
		t.Fatal("not grafted")
	}
	// Not idle long enough: kept.
	r.hosts[0].Tick()
	if n := r.hosts[0].PruneGrafts(5); n != 0 {
		t.Fatalf("pruned too eagerly: %d", n)
	}
	// Idle past the limit: pruned.
	for i := 0; i < 10; i++ {
		r.hosts[0].Tick()
	}
	if n := r.hosts[0].PruneGrafts(5); n != 1 {
		t.Fatalf("pruned %d, want 1", n)
	}
	if len(r.hosts[0].GraftedVolumes()) != 0 {
		t.Fatal("graft survived pruning")
	}
	// The next walk regrafts transparently.
	if _, err := vnode.Walk(rootA, "proj/readme"); err != nil {
		t.Fatalf("walk after pruning: %v", err)
	}
}

func TestGraftPruningSparesBusyVolumes(t *testing.T) {
	r := newGraftRig(t)
	// Use the graft from host b, where the project volume replica is local,
	// so open counts are observable.
	rootB := r.mount(t, 1)
	f, err := vnode.Walk(rootB, "proj/readme")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.hosts[1].Tick()
	}
	if n := r.hosts[1].PruneGrafts(5); n != 0 {
		t.Fatal("pruned a volume with open files")
	}
	if err := f.Close(vnode.OpenRead); err != nil {
		t.Fatal(err)
	}
	if n := r.hosts[1].PruneGrafts(5); n != 1 {
		t.Fatalf("pruned %d after close, want 1", n)
	}
}

func TestGraftEntryNameRoundTrip(t *testing.T) {
	for _, rid := range []ids.ReplicaID{0, 1, 0xffffffff} {
		got, ok := parseGraftEntryName(graftEntryName(rid))
		if !ok || got != rid {
			t.Fatalf("round trip %d -> %q -> %d %v", rid, graftEntryName(rid), got, ok)
		}
	}
	if _, ok := parseGraftEntryName("bogus"); ok {
		t.Fatal("parsed garbage")
	}
}

func TestCreateGraftPointRequiresLocalReplica(t *testing.T) {
	c := newCluster(t, 1)
	other := ids.VolumeHandle{Allocator: 9, Volume: 9}
	err := c.hosts[0].CreateGraftPoint(other, "/", "x", c.vol, nil)
	if !errors.Is(err, ErrNoLocalReplica) {
		t.Fatalf("err = %v", err)
	}
}

// TestDeltaPropagationThroughHealthGate pins the delta path to the
// propagation daemon's REAL peer plumbing: the daemon reaches remote origins
// through the health-gated peer wrapper, so that wrapper must forward
// PullBatchDelta — otherwise every pull silently degrades to whole-file and
// the block layer never earns its keep.  An append-one-block update must
// ship exactly the appended block and reassemble the rest from the version
// being replaced.
func TestDeltaPropagationThroughHealthGate(t *testing.T) {
	const bs = physical.ChecksumBlockSize
	c := newCluster(t, 2)
	root := c.mount(t, 0)
	f, err := root.Create("big", true)
	if err != nil {
		t.Fatal(err)
	}
	base := append(bytes.Repeat([]byte{'a'}, bs), bytes.Repeat([]byte{'b'}, bs)...)
	if err := vnode.WriteFile(f, base); err != nil {
		t.Fatal(err)
	}
	if _, err := c.hosts[1].PropagateOnce(); err != nil {
		t.Fatal(err)
	}

	// Append one block at the origin; the next daemon pass on host b must
	// pull via the delta op: 1 block shipped by a, 2 reassembled by b.
	if err := vnode.WriteFile(f, append(base, bytes.Repeat([]byte{'c'}, bs)...)); err != nil {
		t.Fatal(err)
	}
	beforeShipped := c.hosts[0].BlockStats().BlocksShipped
	stats, err := c.hosts[1].PropagateOnce()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 1 {
		t.Fatalf("FilesPulled = %d, want 1", stats.FilesPulled)
	}
	if got := c.hosts[0].BlockStats().BlocksShipped - beforeShipped; got != 1 {
		t.Fatalf("origin shipped %d blocks for an append-one-block update, want 1", got)
	}
	if got := c.hosts[1].BlockStats().BlocksReused; got != 2 {
		t.Fatalf("puller reused %d blocks of the old version, want 2", got)
	}
	root1 := c.mount(t, 1)
	g, err := root1.Lookup("big")
	if err != nil {
		t.Fatal(err)
	}
	data, err := vnode.ReadFile(g)
	if err != nil || len(data) != 3*bs || data[2*bs] != 'c' {
		t.Fatalf("delta-installed file wrong: len=%d err=%v", len(data), err)
	}
}

// TestStaleSelfLocationIsUnreachable: a location row that names this host
// but no replica stored here is unreachable to every reader.  The mount,
// the propagation and reconciliation passes and GC make no RPC to it (on a
// one-host cluster every RPC would be one to self), the host's own address
// records no failure, and GC still refuses the volume as incomplete.
func TestStaleSelfLocationIsUnreachable(t *testing.T) {
	c := newCluster(t, 1)
	h := c.hosts[0]
	root := c.mount(t, 0)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Create("gone", true); err != nil {
		t.Fatal(err)
	}
	if err := root.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	layer := h.LocalReplica(c.vol)
	proot, err := layer.Root()
	if err != nil {
		t.Fatal(err)
	}
	pf, err := proot.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	_, dir, fid, err := physical.ParseHandle(pf.Handle())
	if err != nil {
		t.Fatal(err)
	}

	h.SetLocations(c.vol, []ReplicaLoc{{ID: 9, Addr: h.Addr()}})
	before := c.net.Stats().RPCs
	root = c.mount(t, 0)
	g, err := root.Lookup("f")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := vnode.ReadFile(g); err != nil || string(data) != "kept" {
		t.Fatalf("read through the mount = %q, %v", data, err)
	}
	layer.NoteNewVersion(dir, fid, 9)
	stats, err := h.PropagateOnce()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deferred != 1 || len(layer.PendingVersions()) != 1 {
		t.Fatalf("a notice from the stale replica: deferred %d, pending %d; want 1, 1", stats.Deferred, len(layer.PendingVersions()))
	}
	if _, err := h.ReconcileOnce(); err != nil {
		t.Fatal(err)
	}
	n, err := h.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("GC collected %d tombstones with replica 9 unreachable", n)
	}
	if rpcs := c.net.Stats().RPCs - before; rpcs != 0 {
		t.Fatalf("%d RPCs on a one-host cluster, want none to self", rpcs)
	}
	if info := h.PeerHealthInfo(h.Addr()); info.Fails != 0 || info.State != retry.Healthy {
		t.Fatalf("own address's health = %+v, want no failure", info)
	}

	h.ForgetLocation(c.vol, 9)
	if n, err := h.CollectGarbage(); err != nil || n != 1 {
		t.Fatalf("GC without the stale row = %d, %v; want 1 tombstone", n, err)
	}
}
