package core

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// sweepCluster is a 2-host rig on small disks: host 1 (replica 2) is the
// crash victim, host 0 (replica 1) keeps writing throughout.
type sweepCluster struct {
	hosts []*Host
	vol   ids.VolumeHandle
}

func newSweepCluster(t *testing.T) *sweepCluster {
	t.Helper()
	small := &StorageOptions{DiskBlocks: 2048, Inodes: 256}
	net := simnet.New(1)
	h0 := NewHost(net, "a", 1)
	h1 := NewHost(net, "b", 2)
	vol, rid, err := h0.CreateVolume(small)
	if err != nil {
		t.Fatal(err)
	}
	locs := []ReplicaLoc{{ID: rid, Addr: "a"}}
	if err := h1.AddReplica(vol, 2, locs[0], small); err != nil {
		t.Fatal(err)
	}
	locs = append(locs, ReplicaLoc{ID: 2, Addr: "b"})
	h0.SetLocations(vol, locs)
	h1.SetLocations(vol, locs)
	return &sweepCluster{hosts: []*Host{h0, h1}, vol: vol}
}

// runCrashSweepCase runs the mixed workload with host 1's disk armed to
// crash after crashAfter writes, then restarts host 1 and checks the
// durability contract.  Returns whether the armed fault actually fired (so
// the sweep knows when it has walked past the last workload write).
func runCrashSweepCase(t *testing.T, crashAfter int) bool {
	t.Helper()
	c := newSweepCluster(t)
	h0, h1 := c.hosts[0], c.hosts[1]
	vr1 := ids.VolumeReplicaHandle{Vol: c.vol, Replica: 2}

	lay0, err := h0.Mount(c.vol, logical.MostRecent)
	if err != nil {
		t.Fatal(err)
	}
	root0, err := lay0.Root()
	if err != nil {
		t.Fatal(err)
	}
	// FirstAvailable puts the victim's own replica first, so its creates and
	// renames land on the disk that is about to fail (under MostRecent they
	// chase host 0's newer root and the victim's disk sees little).
	lay1, err := h1.Mount(c.vol, logical.FirstAvailable)
	if err != nil {
		t.Fatal(err)
	}
	root1, err := lay1.Root()
	if err != nil {
		t.Fatal(err)
	}

	dev := h1.Device(vr1)
	if dev == nil {
		t.Fatal("no device for host 1")
	}
	dev.FaultAfterWrites(crashAfter)

	// Mixed create/write/rename workload on both hosts.  Host 1's local
	// ops die mid-flight once the disk crashes — exactly like a power
	// failure — so their errors are expected, not checked.  Host 0's
	// notifications keep arriving into host 1's new-version cache, which the
	// crash then drops.  Host 1 goes on for five rounds after host 0's last
	// write: a naming op is one append, a whole-file write one version, a
	// file two members, and the sweep needs its 400 offsets.
	for i := 0; i < 9; i++ {
		if i < 4 {
			f, err := root0.Create(fmt.Sprintf("a%d", i), false)
			if err != nil {
				t.Fatal(err)
			}
			if err := vnode.WriteFile(f, []byte(fmt.Sprintf("h0 v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if g, err := root1.Create(fmt.Sprintf("b%d", i), false); err == nil {
			_ = vnode.WriteFile(g, []byte(fmt.Sprintf("h1 v%d", i)))
			// Local overwrites reseal in place: within a block, past the
			// end across a hole, and a cut.
			_, _ = g.WriteAt([]byte("again"), 3)
			_, _ = g.WriteAt([]byte("far"), 3*4096)
			_ = g.Truncate(4)
		}
		if i > 0 {
			_ = root1.Rename(fmt.Sprintf("b%d", i-1), root1, fmt.Sprintf("c%d", i-1))
		}
	}

	fired := dev.Faulted()

	h1.Crash()
	if err := h1.Restart(); err != nil {
		t.Fatalf("crashAfter=%d: restart: %v", crashAfter, err)
	}

	// Contract 1: the rebooted replica is structurally clean.
	if probs, err := h1.Fsck(); err != nil {
		t.Fatalf("crashAfter=%d: fsck: %v", crashAfter, err)
	} else if len(probs) != 0 {
		t.Fatalf("crashAfter=%d: fsck found: %v", crashAfter, probs)
	}

	// Contract 2: the cluster still converges.  (The rescan flag makes the
	// first propagation pass reconcile, covering every notice the crash
	// dropped from the volatile new-version cache.)
	for round := 0; round < 8; round++ {
		if _, err := h0.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		if _, err := h0.ReconcileOnce(); err != nil {
			t.Fatal(err)
		}
		if _, err := h1.ReconcileOnce(); err != nil {
			t.Fatal(err)
		}
		if len(pendingSet(h0, c.vol)) == 0 && len(pendingSet(h1, c.vol)) == 0 {
			break
		}
	}
	lay, err := h1.Mount(c.vol, logical.MostRecent)
	if err != nil {
		t.Fatal(err)
	}
	newRoot1, err := lay.Root()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		f, err := newRoot1.Lookup(fmt.Sprintf("a%d", i))
		if err != nil {
			t.Fatalf("crashAfter=%d: host 0's a%d lost: %v", crashAfter, i, err)
		}
		data, err := vnode.ReadFile(f)
		if err != nil || string(data) != fmt.Sprintf("h0 v%d", i) {
			t.Fatalf("crashAfter=%d: a%d = %q, %v", crashAfter, i, data, err)
		}
	}
	return fired
}

// TestCrashAtEveryWrite power-fails host 1's disk after every possible
// write count in a mixed workload, then restarts and verifies: clean fsck
// and full convergence.  The sweep ends when the armed countdown outlives
// the whole workload.
func TestCrashAtEveryWrite(t *testing.T) {
	const maxSweep = 3000
	crashAfter := 0
	for ; crashAfter <= maxSweep; crashAfter++ {
		if !runCrashSweepCase(t, crashAfter) {
			break
		}
	}
	if crashAfter > maxSweep {
		t.Fatalf("sweep did not terminate within %d offsets", maxSweep)
	}
	if crashAfter < 400 {
		t.Fatalf("workload performed only %d victim-disk writes; sweep is vacuous", crashAfter)
	}
	t.Logf("swept %d crash offsets", crashAfter)
}
