package ficus

// Large-cluster gossip tests: the epidemic notification plane and the
// health-aware anti-entropy scheduler under churn.
//
//   - Storm idempotence: with every notification datagram duplicated and
//     every multicast reordered, duplicate suppression must make the wire
//     noise invisible — per-host state identical to a fault-free run.
//   - Partial replica sets: rumors for a volume travel only among the hosts
//     storing it; bystanders see zero gossip traffic.
//   - Churn chaos at 256 hosts: crashes, partitions, lossy links, and
//     replica-set churn, then convergence to identical trees with every
//     checker clean — while each origin's notification cost stays O(fanout),
//     not O(n).

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vnode"
)

// replicaTreeOf renders one host's LOCAL physical replica of vol as sorted
// lines, walking the store directly — no mounts, no NFS, no codec.  This is
// both faster than a mounted walk at 256 hosts (a mounted read funnels every
// entry through the RPC stack) and a stronger convergence check: each
// replica's own on-disk state must agree, not merely the merged logical view.
func replicaTreeOf(tb testing.TB, c *Cluster, host int, vol Volume, contents bool) string {
	tb.Helper()
	l := c.Host(host).LocalReplica(vol.h)
	if l == nil {
		tb.Fatalf("host %d stores no replica of volume %s", host, vol.h)
	}
	root, err := l.Root()
	if err != nil {
		tb.Fatalf("host %d root: %v", host, err)
	}
	var lines []string
	var walk func(dir vnode.Vnode, path string)
	walk = func(dir vnode.Vnode, path string) {
		ents, err := dir.Readdir()
		if err != nil {
			tb.Fatalf("host %d readdir %s: %v", host, path, err)
		}
		for _, e := range ents {
			full := path + "/" + e.Name
			child, err := dir.Lookup(e.Name)
			if err != nil {
				tb.Fatalf("host %d lookup %s: %v", host, full, err)
			}
			if e.Type == vnode.VDir {
				lines = append(lines, full+"/")
				walk(child, full)
				continue
			}
			if contents {
				data, err := vnode.ReadFile(child)
				if err != nil {
					tb.Fatalf("host %d read %s: %v", host, full, err)
				}
				lines = append(lines, fmt.Sprintf("%s=%q", full, data))
			} else {
				lines = append(lines, full)
			}
		}
	}
	walk(root, "")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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

// TestChaosGossipChurnConvergence is the tentpole chaos run: 256 hosts, the
// gossip plane on (fanout 3, TTL 6) with a 2-peer reconciliation budget,
// under crash–restart churn, shifting partitions, a lossy datagram plane
// with extra per-link loss, and replica-set churn on a side volume.  After
// the churn window closes, budgeted anti-entropy alone must converge every
// host to the identical namespace, conflicts must resolve, both checkers
// must come back clean — and the origin-side notification cost must have
// stayed at O(fanout) per update.
func TestChaosGossipChurnConvergence(t *testing.T) {
	const hosts = 256
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, err := NewCluster(hosts, WithSeed(seed), WithPolicy(FirstAvailable),
				WithStorage(4096, 512))
			if err != nil {
				t.Fatal(err)
			}
			gossipAll(c, GossipConfig{Fanout: 3, TTL: 6, ReconPeers: 2})
			c.InjectFaults(FaultConfig{
				RPCFailRate:      0.02,
				DatagramLossRate: 0.15,
				DatagramDupRate:  0.05,
				ReorderRate:      0.2,
			})
			// A few asymmetric trouble spots on top of the global loss.
			for i := 0; i < 8; i++ {
				c.SetLinkDatagramLoss(rng.Intn(hosts), rng.Intn(hosts), 0.9)
			}

			tolerate := func(err error) {
				if err == nil {
					return
				}
				if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotExist) ||
					errors.Is(err, ErrExist) || errors.Is(err, ErrConflict) ||
					errors.Is(err, core.ErrHostDown) {
					return
				}
				s := err.Error()
				if strings.Contains(s, "not empty") || strings.Contains(s, "stale") ||
					strings.Contains(s, "not stored") || strings.Contains(s, "unreachable") {
					return
				}
				t.Fatalf("unexpected error class: %v", err)
			}

			// A side volume on a small subset, churned during the run.
			vol2, err := c.NewVolume(1)
			if err != nil {
				t.Fatal(err)
			}
			vol2Holders := map[int]bool{1: true}
			for _, h := range []int{33, 77, 130} {
				if err := c.ReplicateVolume(vol2, h); err != nil {
					t.Fatal(err)
				}
				vol2Holders[h] = true
			}

			writers := []int{0, 16, 48, 90, 128, 170, 200, 255}
			upCount := func() int {
				n := 0
				for i := 0; i < hosts; i++ {
					if !c.HostDown(i) {
						n++
					}
				}
				return n
			}
			crashes := 0
			for step := 0; step < 90; step++ {
				switch rng.Intn(12) {
				case 0, 1, 2, 3, 4: // host-owned writes on the root volume
					w := writers[rng.Intn(len(writers))]
					if c.HostDown(w) {
						continue
					}
					m, err := c.Mount(w)
					if err != nil {
						tolerate(err)
						continue
					}
					name := fmt.Sprintf("/h%d-f%d", w, rng.Intn(4))
					tolerate(m.WriteFile(name, []byte(fmt.Sprintf("h%d s%d", w, step))))
				case 5: // write on the side volume from one of its holders
					var hs []int
					for h := range vol2Holders {
						if !c.HostDown(h) {
							hs = append(hs, h)
						}
					}
					if len(hs) == 0 {
						continue
					}
					sort.Ints(hs)
					h := hs[rng.Intn(len(hs))]
					m, err := c.MountVolume(h, vol2)
					if err != nil {
						tolerate(err)
						continue
					}
					tolerate(m.WriteFile(fmt.Sprintf("/side-h%d", h), []byte(fmt.Sprintf("s%d", step))))
				case 6: // crash a random up host (keep a quorum of the world up)
					h := rng.Intn(hosts)
					if !c.HostDown(h) && upCount() > hosts-12 {
						c.CrashHost(h)
						crashes++
					}
				case 7: // restart a random down host
					for i := 0; i < hosts; i++ {
						h := (rng.Intn(hosts) + i) % hosts
						if c.HostDown(h) {
							if err := c.RestartHost(h); err != nil {
								t.Fatalf("restart %d: %v", h, err)
							}
							break
						}
					}
				case 8: // shifting partitions
					switch rng.Intn(3) {
					case 0:
						c.PartitionSplit(rng.Intn(hosts-2) + 1)
					case 1:
						k := rng.Intn(7) + 2
						c.PartitionFunc(func(h int) bool { return h%k == 0 })
					case 2:
						c.Heal()
					}
				case 9: // replica-set churn on the side volume, up hosts only
					if rng.Intn(2) == 0 {
						h := rng.Intn(hosts)
						if !vol2Holders[h] && !c.HostDown(h) && !c.HostDown(1) {
							if err := c.ReplicateVolume(vol2, h); err != nil {
								tolerate(err)
							} else {
								vol2Holders[h] = true
							}
						}
					} else if len(vol2Holders) > 2 {
						var hs []int
						for h := range vol2Holders {
							if h != 1 && !c.HostDown(h) {
								hs = append(hs, h)
							}
						}
						sort.Ints(hs)
						if len(hs) > 0 {
							h := hs[rng.Intn(len(hs))]
							if err := c.DropReplica(vol2, h); err != nil {
								tolerate(err)
							} else {
								delete(vol2Holders, h)
							}
						}
					}
				case 10:
					if _, err := c.Propagate(); err != nil {
						t.Fatalf("propagate: %v", err)
					}
				case 11:
					if _, err := c.Reconcile(); err != nil {
						t.Fatalf("reconcile: %v", err)
					}
				}
			}
			if crashes == 0 {
				t.Fatal("churn window never crashed a host; broaden the schedule")
			}

			// Close the churn window: reboot the world, heal, lift the faults.
			for i := 0; i < hosts; i++ {
				if c.HostDown(i) {
					if err := c.RestartHost(i); err != nil {
						t.Fatalf("final restart %d: %v", i, err)
					}
				}
			}
			c.Heal()
			c.ClearFaults()

			// Converge by budgeted anti-entropy: each pass visits only
			// ReconPeers=2 of 255 peers per host, so the scheduler's rotation
			// — not sweep breadth — is what must reach every peer.  Budgeted
			// quiescence can be false (a pass that visits two in-sync peers
			// changes nothing), so converge on tree equality, not on
			// stats-quiet passes.
			if _, err := c.Propagate(); err != nil {
				t.Fatal(err)
			}
			rootVol := c.RootVolume()
			treesEqual := func(contents bool) bool {
				ref := replicaTreeOf(t, c, 0, rootVol, contents)
				for i := 1; i < hosts; i++ {
					if replicaTreeOf(t, c, i, rootVol, contents) != ref {
						return false
					}
				}
				return true
			}
			// reconcileUntil runs budgeted passes, checking every eighth, until
			// the trees agree by name (contents false) or by name and bytes.
			reconcileUntil := func(contents bool) bool {
				for pass := 0; pass < 240; pass++ {
					if _, err := c.Reconcile(); err != nil {
						t.Fatalf("reconcile: %v", err)
					}
					if pass%8 == 7 && treesEqual(contents) {
						return true
					}
				}
				return false
			}
			if !reconcileUntil(false) {
				t.Fatalf("namespaces still diverged after 240 budgeted passes (crashes=%d)", crashes)
			}

			// Resolve whatever conflicts partitioned writes produced (each
			// logical file once per round), then contents must agree.
			for iter := 0; iter < 5 && len(c.Conflicts()) > 0; iter++ {
				resolved := map[string]bool{}
				for _, conf := range c.Conflicts() {
					if resolved[conf.FileID] {
						continue
					}
					resolved[conf.FileID] = true
					if err := c.Resolve(conf, []byte("gossip-chaos-resolved")); err != nil {
						t.Fatalf("resolve: %v", err)
					}
				}
				for pass := 0; pass < 120 && len(c.Conflicts()) > 0; pass++ {
					if _, err := c.Reconcile(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n := len(c.Conflicts()); n != 0 {
				t.Fatalf("%d conflicts survived resolution", n)
			}
			// Agreeing names do not make agreeing bytes: a host that holds a
			// name may not have pulled its newest version yet.
			reconcileUntil(true)
			refFull := replicaTreeOf(t, c, 0, rootVol, true)
			for i := 1; i < hosts; i++ {
				if got := replicaTreeOf(t, c, i, rootVol, true); got != refFull {
					t.Fatalf("contents diverged:\n--- host 0:\n%s\n--- host %d:\n%s", refFull, i, got)
				}
			}

			// The side volume's surviving holders agree too.
			var hs []int
			for h := range vol2Holders {
				hs = append(hs, h)
			}
			sort.Ints(hs)
			sideRef := replicaTreeOf(t, c, hs[0], vol2, true)
			for _, h := range hs[1:] {
				if got := replicaTreeOf(t, c, h, vol2, true); got != sideRef {
					t.Fatalf("side volume diverged between holders %d and %d:\n%s\nvs\n%s", hs[0], h, sideRef, got)
				}
			}

			// The gossip plane actually carried the load, and origin cost
			// stayed at O(fanout): every host sent at most fanout notices per
			// rumor it originated — never the flat n-1.
			var all []GossipStats
			for i := 0; i < hosts; i++ {
				all = append(all, c.GossipStatsFor(i))
			}
			if total := sumGossip(all); total.NoticesSent == 0 || total.RumorsRelayed == 0 {
				t.Fatalf("gossip plane idle: %+v", total)
			}
			for i, gs := range all {
				if gs.NoticesSent > 3*gs.RumorsOriginated {
					t.Fatalf("host %d sent %d notices for %d rumors: origin cost above fanout",
						i, gs.NoticesSent, gs.RumorsOriginated)
				}
			}

			// Every replica structurally clean.
			probs, err := c.Fsck()
			if err != nil {
				t.Fatal(err)
			}
			if len(probs) != 0 {
				t.Fatalf("fsck problems:\n%s", strings.Join(probs, "\n"))
			}
		})
	}
}
