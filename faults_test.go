package ficus

// Propagation, garbage collection and gossip under faults, each on a scripted
// workload of its own: the tests here pin one mechanism apiece and are not
// event-driven chaos (that is scenario_test.go).

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/recon"
	"repro/internal/ufs"
)

// treeOf renders host's mounted namespace as tree does: an end-to-end read
// through the logical layer and NFS.
func treeOf(t testing.TB, c *Cluster, host int, contents bool) string {
	t.Helper()
	m, err := c.Mount(host)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tree(m.root, contents)
	if err != nil {
		t.Fatalf("host %d: %v", host, err)
	}
	return out
}

func TestClusterGCEndToEnd(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.Mount(0)
	if err := m.WriteFile("/doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/doomed"); err != nil {
		t.Fatal(err)
	}
	// GC while host 2 is partitioned: unsafe, must collect nothing for the
	// shared volume.
	c.Partition([]int{0, 1}, []int{2})
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	n, err := c.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("collected %d tombstones with a replica unreachable", n)
	}
	// Heal: delete propagates everywhere, then GC collects on all hosts.
	c.Heal()
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	n, err = c.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("collected %d tombstones, want 3 (one per replica)", n)
	}
	// Still converged, still deleted, still clean.
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("/doomed"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("resurrected: %v", err)
	}
	probs, err := c.Fsck()
	if err != nil || len(probs) != 0 {
		t.Fatalf("fsck: %v %v", probs, err)
	}
}

// TestChaosBatchedPropagationUnderFaults exercises the batched conditional
// pull path alone (no reconciliation safety net) under an adversarial RPC
// plane: request loss, and lost replies — the server executed the batch,
// the client retried it, so the whole batch replays.  The workload itself
// runs fault-free: a faulty write can legitimately fail over mid-reply-loss
// and apply at two replicas (a real conflict, covered by the flaky-links
// chaos row); here every host writes distinct names cleanly, so the
// propagation plane must converge with ZERO conflicts — a batch replay
// that re-installed a version it already had would surface as a spurious
// conflict or a failed pass.  Notification loss also stays off because
// propagation by itself cannot recover a dropped new-version notice; that
// is reconciliation's job (§3.3).
func TestChaosBatchedPropagationUnderFaults(t *testing.T) {
	const hosts = 3
	var faultsSeen, replaysSeen uint64
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, err := NewCluster(hosts, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			mounts := make([]*Mount, hosts)
			for i := range mounts {
				if mounts[i], err = c.Mount(i); err != nil {
					t.Fatal(err)
				}
			}
			// Fault-free write phase: each host owns its names, so nothing
			// here can conflict.  Notifications pile up in the pending
			// caches; no propagation runs yet.
			for step := 0; step < 60; step++ {
				h := rng.Intn(hosts)
				name := fmt.Sprintf("/h%d-f%d", h, rng.Intn(6))
				if err := mounts[h].WriteFile(name, []byte(fmt.Sprintf("h%d s%d", h, step))); err != nil {
					t.Fatalf("write %s: %v", name, err)
				}
			}

			// Converge by propagation alone under the fault plane — no
			// Reconcile calls from here on.  Propagation is quiescent when
			// every replica's pending new-version cache has drained: each
			// entry ends in an install, a stale drop, or a conflict report;
			// transiently failed entries stay pending under backoff and must
			// eventually drain despite the fault plane.
			pending := func() int {
				n := 0
				for i := 0; i < hosts; i++ {
					for _, l := range c.Host(i).LocalReplicas() {
						n += len(l.PendingVersions())
					}
				}
				return n
			}
			if pending() == 0 {
				t.Fatal("write phase queued no pending versions")
			}
			c.ResetNetworkStats() // count propagation traffic only
			c.InjectFaults(FaultConfig{RPCFailRate: 0.2, ReplyLossRate: 0.25})
			pulled := 0
			drained := false
			for round := 0; round < 300 && !drained; round++ {
				s, err := c.Propagate()
				if err != nil {
					t.Fatalf("propagate: %v", err)
				}
				pulled += s.FilesPulled
				drained = pending() == 0
			}
			if !drained {
				t.Fatalf("%d entries still pending after 300 propagation passes under RPC faults", pending())
			}
			if pulled == 0 {
				t.Fatal("propagation drained without pulling anything")
			}

			// Verification reads run fault-free; the propagation above did not.
			ns := c.NetworkStats()
			c.ClearFaults()
			ref := treeOf(t, c, 0, true)
			for i := 1; i < hosts; i++ {
				if got := treeOf(t, c, i, true); got != ref {
					t.Fatalf("diverged after propagation-only convergence:\n--- host 0:\n%s\n--- host %d:\n%s", ref, i, got)
				}
			}
			if n := len(c.Conflicts()); n != 0 {
				t.Fatalf("%d conflicts from non-conflicting workload (batch replay bug?)", n)
			}
			// Batching keeps the propagation phase to a handful of RPCs, so
			// a single seed can dodge a fault kind; the cross-seed totals
			// must show both request loss and reply loss (replay) happened.
			faultsSeen += ns.RPCFaultsInjected
			replaysSeen += ns.RPCRepliesLost
			probs, err := c.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if len(probs) != 0 {
				t.Fatalf("fsck problems:\n%s", strings.Join(probs, "\n"))
			}
		})
	}
	if faultsSeen == 0 || replaysSeen == 0 {
		t.Fatalf("fault plane idle across all seeds: faults=%d, lost replies=%d", faultsSeen, replaysSeen)
	}
}

// TestPropagationDeterministicUnderFaults pins the concurrency contract of
// the batched propagation pipeline: with the same cluster seed, the same
// injected fault rates, and the same workload, two runs must produce the
// exact same per-host recon.Stats sequence — worker-pool scheduling and
// per-link fault draws may interleave differently in time, but must never
// change any observable outcome.
func TestPropagationDeterministicUnderFaults(t *testing.T) {
	const hosts = 3
	run := func() []recon.Stats {
		c, err := NewCluster(hosts, WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		c.InjectFaults(FaultConfig{RPCFailRate: 0.15, ReplyLossRate: 0.15})
		mounts := make([]*Mount, hosts)
		for i := range mounts {
			if mounts[i], err = c.Mount(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < hosts; i++ {
			for j := 0; j < 8; j++ {
				name := fmt.Sprintf("/h%d-f%d", i, j)
				// A write may fail under the fault plane; the failure draw
				// itself is seeded, so both runs fail identically.
				_ = mounts[i].WriteFile(name, []byte(name))
			}
		}
		var trace []recon.Stats
		for pass := 0; pass < 12; pass++ {
			for i := 0; i < hosts; i++ {
				s, _ := c.Host(i).PropagateOnce() // transient errors defer; stats still count
				trace = append(trace, s)
			}
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pass %d host %d diverged between identical runs:\n%v\nvs\n%v",
				i/hosts, i%hosts, a[i], b[i])
		}
	}
}

// TestPropagationDiskFullRecovers is the ENOSPC regression: a receiving
// replica with a full disk must treat the failed install as transient —
// entry kept under backoff, no permanent error — and converge on its own
// once space frees up.
func TestPropagationDiskFullRecovers(t *testing.T) {
	c, err := NewCluster(2, WithSeed(3), WithStorage(512, 256))
	if err != nil {
		t.Fatal(err)
	}
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}

	// Fill host 1's disk underneath Ficus: raw UFS files that never enter
	// the replicated namespace.  "spare" is freed again right away so the
	// daemons' own bookkeeping (journal appends) still fits, while the
	// incoming file payload does not.
	vr := c.Host(1).LocalReplicas()[0].VolumeReplica()
	fs := c.Host(1).UFS(vr)
	spare, err := fs.Create(fs.Root(), "zz-spare")
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, ufs.BlockSize)
	for i := 0; i < 4; i++ {
		if _, err := fs.WriteAt(spare, block, int64(i)*int64(ufs.BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	filler, err := fs.Create(fs.Root(), "zz-filler")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for {
		if _, err := fs.WriteAt(filler, block, off); err != nil {
			if !errors.Is(err, ufs.ErrNoSpace) {
				t.Fatal(err)
			}
			break
		}
		off += int64(ufs.BlockSize)
	}
	if err := fs.Remove(fs.Root(), "zz-spare"); err != nil {
		t.Fatal(err)
	}

	// A payload larger than the freed headroom: the announcement arrives,
	// the pull runs, the install dies on ENOSPC.
	payload := make([]byte, 8*ufs.BlockSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := m0.WriteFile("/big", payload); err != nil {
		t.Fatal(err)
	}
	s, err := c.Propagate()
	if err != nil {
		t.Fatalf("disk-full install must stay transient, got pass error: %v", err)
	}
	if s.FilesPulled != 0 {
		t.Fatalf("pulled %d files into a full disk", s.FilesPulled)
	}
	// Both the file and its containing directory stay pending; every entry
	// must have been attempted (ENOSPC classified transient, not dropped).
	pend := c.PendingVersionsFor(1)
	if len(pend) == 0 {
		t.Fatal("no pending entries after disk-full install")
	}
	for _, p := range pend {
		if p.Attempts == 0 {
			t.Fatalf("entry never attempted, must stay pending under backoff: %+v", pend)
		}
	}

	// Space frees up (a user deletes files); the daemons converge with no
	// outside help beyond their normal passes.
	if err := fs.Remove(fs.Root(), "zz-filler"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && len(c.PendingVersionsFor(1)) > 0; i++ {
		if _, err := c.Propagate(); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := c.Mount(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m1.ReadFile("/big")
	if err != nil {
		t.Fatalf("read after space freed: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload mismatch after ENOSPC recovery")
	}
	probs, err := c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("fsck problems after ENOSPC recovery: %v", probs)
	}
}

// gossipAll installs one gossip config on every host.
func gossipAll(c *Cluster, cfg GossipConfig) {
	c.ConfigureGossip(cfg)
}

// sumGossip totals per-host gossip counters into cluster-wide ones.
func sumGossip(per []GossipStats) GossipStats {
	var total GossipStats
	for _, g := range per {
		total.Add(g)
	}
	return total
}

// nvcSnapshot renders every host's pending new-version cache — (file,
// origin, seen) per entry — as one deterministic string.
func nvcSnapshot(c *Cluster) string {
	var lines []string
	for i := 0; i < c.NumHosts(); i++ {
		for _, l := range c.Host(i).LocalReplicas() {
			for _, nv := range l.PendingVersions() {
				lines = append(lines, fmt.Sprintf("h%d %s o%d seen=%d", i, nv.File, nv.Origin, nv.Seen))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestGossipStormIdempotence runs the same 64-host write workload three
// times: on a clean network, with every datagram duplicated, and with
// duplication plus reordered multicast fan-out.
//
// Duplication alone must be invisible above the suppression layer — a dup
// always trails some copy of the same rumor on the same link, so host state
// (notifications seen, new-version cache entries and their Seen counts)
// must be byte-identical to the clean run.  Reordering additionally permutes
// the relay tree (a rumor's first arrival path decides who relays where), so
// coverage may legitimately differ; what must still hold on every host is
// first-seen semantics: NotificationsSeen == rumors accepted, never more
// than one acceptance per originated rumor, and a storm of duplicates
// actually hitting the suppression cache instead of the NVC.
func TestGossipStormIdempotence(t *testing.T) {
	const hosts = 64
	run := func(faults FaultConfig) (string, string, NetStats, []GossipStats) {
		c, err := NewCluster(hosts, WithSeed(5), WithPolicy(FirstAvailable))
		if err != nil {
			t.Fatal(err)
		}
		gossipAll(c, GossipConfig{Fanout: 3, TTL: 5})
		c.InjectFaults(faults)
		for w := 0; w < 8; w++ {
			m, err := c.Mount(w * 8)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < 3; f++ {
				name := fmt.Sprintf("/h%d-f%d", w*8, f)
				if err := m.WriteFile(name, []byte(name)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var seen []string
		gs := make([]GossipStats, hosts)
		for i := 0; i < hosts; i++ {
			gs[i] = c.GossipStatsFor(i)
			seen = append(seen, fmt.Sprintf("h%d seen=%d", i, gs[i].NotificationsSeen))
		}
		return strings.Join(seen, "\n"), nvcSnapshot(c), c.NetworkStats(), gs
	}

	cleanSeen, cleanNVC, _, _ := run(FaultConfig{})
	dupSeen, dupNVC, dupNS, dupGS := run(FaultConfig{DatagramDupRate: 1.0})
	if dupNS.DatagramsDuplicated == 0 {
		t.Fatalf("fault plane idle: %+v", dupNS)
	}
	if sumGossip(dupGS).RumorsSuppressed == 0 {
		t.Fatal("no duplicate rumor was ever suppressed under dup-rate 1.0")
	}
	if dupSeen != cleanSeen {
		t.Fatalf("NotificationsSeen diverged under duplication:\n--- clean:\n%s\n--- noisy:\n%s", cleanSeen, dupSeen)
	}
	if dupNVC != cleanNVC {
		t.Fatalf("new-version caches diverged under duplication:\n--- clean:\n%s\n--- noisy:\n%s", cleanNVC, dupNVC)
	}

	_, _, stormNS, stormGS := run(FaultConfig{DatagramDupRate: 1.0, ReorderRate: 1.0})
	storm := sumGossip(stormGS)
	if stormNS.MulticastsReordered == 0 || storm.RumorsSuppressed == 0 {
		t.Fatalf("storm plane idle: %+v %+v", stormNS, storm)
	}
	originated := storm.RumorsOriginated
	for i, g := range stormGS {
		// One NVC feed per accepted rumor (one replica per host, no
		// co-resident or legacy traffic in this rig) — a duplicate that
		// leaked past suppression would break the equality — and no host
		// can accept a rumor more than once however many copies arrive.
		if g.NotificationsSeen != g.RumorsAccepted {
			t.Fatalf("host %d: NotificationsSeen=%d but RumorsAccepted=%d under the storm",
				i, g.NotificationsSeen, g.RumorsAccepted)
		}
		if g.RumorsAccepted > originated {
			t.Fatalf("host %d accepted %d rumors of %d originated", i, g.RumorsAccepted, originated)
		}
	}
}

// TestGossipPartialReplicaSets: a volume stored by 4 of 8 hosts gossips only
// among those 4.  Bystanders receive nothing (the rendezvous sample draws
// exclusively from the volume's location table), and replica-set churn
// moves a host in and out of the rumor flow.
func TestGossipPartialReplicaSets(t *testing.T) {
	const hosts = 8
	c, err := NewCluster(hosts, WithSeed(3), WithPolicy(FirstAvailable))
	if err != nil {
		t.Fatal(err)
	}
	gossipAll(c, GossipConfig{Fanout: 2, TTL: 3})
	vol, err := c.NewVolume(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{1, 2, 3} {
		if err := c.ReplicateVolume(vol, h); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.MountVolume(0, vol)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{1, 2, 3} {
		if got := c.GossipStatsFor(h); got.RumorsAccepted == 0 {
			t.Fatalf("holder %d accepted no rumor: %+v", h, got)
		}
	}
	for h := 4; h < hosts; h++ {
		gs := c.GossipStatsFor(h)
		if gs.RumorsAccepted != 0 || gs.RumorsForeign != 0 || gs.RumorsRelayed != 0 {
			t.Fatalf("bystander %d touched by gossip: %+v", h, gs)
		}
		if n := c.Host(h).GossipStats().NotificationsSeen; n != 0 {
			t.Fatalf("bystander %d saw %d notifications", h, n)
		}
	}

	// Churn host 4 into the replica set: it joins the rumor flow.
	if err := c.ReplicateVolume(vol, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if gs := c.GossipStatsFor(4); gs.RumorsAccepted == 0 {
		t.Fatalf("new holder 4 still outside the rumor flow: %+v", gs)
	}
	// And churn host 3 out: no new rumors reach it.
	if err := c.DropReplica(vol, 3); err != nil {
		t.Fatal(err)
	}
	before := c.GossipStatsFor(3)
	if err := m.WriteFile("/c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	after := c.GossipStatsFor(3)
	if after.RumorsAccepted != before.RumorsAccepted {
		t.Fatalf("dropped holder 3 still accepts rumors: %+v -> %+v", before, after)
	}
}
