package ficus

// Cluster's own machinery: construction, the daemon steps, partitions, and
// the division of labour between best-effort update notification and
// reconciliation (paper §3.2–§3.3).

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vnode"
)

// replicaRoot is the root of host i's physical replica of the root volume.
func replicaRoot(t *testing.T, c *Cluster, i int) vnode.Vnode {
	t.Helper()
	root, err := c.Host(i).LocalReplica(c.root).Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t, 3, WithSeed(1))
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.WriteFile("/shared", []byte("hello cluster")); err != nil {
		t.Fatal(err)
	}
	// Propagation pushes the bits to the other replicas.
	if _, err := c.Propagate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := replicaRoot(t, c, i).Lookup("shared")
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		data, _ := vnode.ReadFile(v)
		if string(data) != "hello cluster" {
			t.Fatalf("replica %d has %q", i, data)
		}
	}
}

func TestSettleReachesQuiescence(t *testing.T) {
	c := newTestCluster(t, 4, WithSeed(2), WithPolicy(FirstAvailable))
	for i := 0; i < 4; i++ {
		m, err := c.Mount(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteFile(fmt.Sprintf("/from-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	// Everyone sees all four files.
	for i := 0; i < 4; i++ {
		m, _ := c.Mount(i)
		ents, err := m.ReadDir("/")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 4 {
			t.Fatalf("host %d sees %d entries", i, len(ents))
		}
	}
}

func TestPartitionScenario(t *testing.T) {
	c := newTestCluster(t, 2, WithSeed(3), WithPolicy(FirstAvailable))
	m0, _ := c.Mount(0)
	m1, _ := c.Mount(1)
	if err := m0.WriteFile("/doc", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(5); err != nil {
		t.Fatal(err)
	}
	c.Partition([]int{0}, []int{1})
	if err := m0.WriteFile("/doc", []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := m1.WriteFile("/doc", []byte("one!")); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if err := c.Settle(5); err != nil {
		t.Fatal(err)
	}
	perHost := make([]int, 2)
	for _, conf := range c.Conflicts() {
		perHost[conf.Host]++
	}
	if perHost[0] != 1 || perHost[1] != 1 {
		t.Fatalf("conflicts %d/%d, want 1/1", perHost[0], perHost[1])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero hosts accepted")
	}
}

func TestHostName(t *testing.T) {
	if hostName(0) != "h0" || hostName(12) != "h12" {
		t.Fatal("names")
	}
}

// TestResetNetworkStatsZeroesEveryCounter: NetworkStats reports the network's
// own record and nothing else, so a reset leaves no counter behind — not
// even after an update was gossiped to the other hosts.
func TestResetNetworkStatsZeroesEveryCounter(t *testing.T) {
	c := newTestCluster(t, 3)
	m, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.NetworkStats().Datagrams == 0 {
		t.Fatal("the write sent no notification: the test proves nothing")
	}
	c.ResetNetworkStats()
	if got := c.NetworkStats(); got != (NetStats{}) {
		t.Fatalf("counters survive ResetNetworkStats: %+v", got)
	}
}

// TestReconciliationSafetyNetUnderDatagramLoss: update notifications are
// best-effort datagrams (here 70% of them are dropped), so propagation alone
// may miss updates — but the periodic reconciliation protocol guarantees
// convergence regardless.
func TestReconciliationSafetyNetUnderDatagramLoss(t *testing.T) {
	c := newTestCluster(t, 3, WithSeed(11), WithPolicy(FirstAvailable))
	c.InjectFaults(FaultConfig{DatagramLossRate: 0.7})
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := m0.WriteFile(fmt.Sprintf("/f%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Propagation runs, but most notifications never arrived.
	if _, err := c.Propagate(); err != nil {
		t.Fatal(err)
	}
	if c.NetworkStats().DatagramsDropped == 0 {
		t.Fatal("test needs dropped datagrams to be meaningful")
	}

	// The reconciliation protocol is the safety net: full convergence.
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r := replicaRoot(t, c, i)
		ents, err := r.Readdir()
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 20 {
			t.Fatalf("replica %d has %d entries, want 20 (notifications lost AND reconciliation failed)", i, len(ents))
		}
		for _, e := range ents {
			v, err := r.Lookup(e.Name)
			if err != nil {
				t.Fatalf("replica %d %s: %v", i, e.Name, err)
			}
			if _, err := vnode.ReadFile(v); err != nil {
				t.Fatalf("replica %d %s data: %v", i, e.Name, err)
			}
		}
	}
}

// TestPropagationAloneConvergesWithoutLoss is the complementary case: with
// a lossless network, notifications + the propagation daemons converge the
// replicas with no reconciliation pass at all.
func TestPropagationAloneConvergesWithoutLoss(t *testing.T) {
	c := newTestCluster(t, 3, WithSeed(12), WithPolicy(FirstAvailable))
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m0.WriteFile(fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Two daemon passes: the first pulls the files announced by the dir
	// notifications, the second drains anything announced during the first.
	for pass := 0; pass < 2; pass++ {
		if _, err := c.Propagate(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 3; i++ {
		ents, err := replicaRoot(t, c, i).Readdir()
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 10 {
			t.Fatalf("replica %d: %d entries after propagation alone", i, len(ents))
		}
	}
}

// TestDuplicateNotificationsAreIdempotent forces every update-notification
// datagram to be delivered twice and checks the at-least-once delivery
// story: duplicates coalesce in the new-version cache (one pending entry
// per file, one pull per remote host), and a duplicate that straggles in
// after the version was already installed is stale news — dropped without
// pulling any data.
func TestDuplicateNotificationsAreIdempotent(t *testing.T) {
	c := newTestCluster(t, 3, WithSeed(13), WithPolicy(FirstAvailable))
	c.InjectFaults(FaultConfig{DatagramDupRate: 1}) // every notification arrives twice
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.WriteFile("/f", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	st, err := m0.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	fid, err := ids.ParseFileID(st.FileID)
	if err != nil {
		t.Fatal(err)
	}

	if c.NetworkStats().DatagramsDuplicated == 0 {
		t.Fatal("test needs duplicated datagrams to be meaningful")
	}
	for i := 1; i < 3; i++ {
		seen := make(map[string]bool)
		for _, pv := range c.PendingVersionsFor(i) {
			if seen[pv.File.String()] {
				t.Fatalf("host %d: file %v queued twice — duplicates must coalesce", i, pv.File)
			}
			seen[pv.File.String()] = true
		}
		if !seen[st.FileID] {
			t.Fatalf("host %d: no pending entry for %v", i, fid)
		}
	}

	stats, err := c.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 2 {
		t.Fatalf("pulled %d file versions, want exactly 2 (one per remote host)", stats.FilesPulled)
	}

	// A duplicate arriving after the pull already installed the version is
	// stale news: the entry drains without another pull.
	origin := c.volumes[c.RootVolume()][0].ID
	c.Host(1).LocalReplica(c.root).NoteNewVersion(physical.RootPath(), fid, origin)
	stats, err = c.Propagate()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 0 {
		t.Fatalf("stale re-announcement caused %d pulls, want 0", stats.FilesPulled)
	}
	for i := 1; i < 3; i++ {
		for _, pv := range c.PendingVersionsFor(i) {
			if pv.File == fid {
				t.Fatalf("host %d: stale entry for %v not drained", i, fid)
			}
		}
	}
}

// TestLostFileNoticeConvergesAtReconcile: a directory's notice merges that
// directory and pulls the files the replica lacks; it does not re-pull the
// stored files beside them.  An update whose own notice was dropped therefore
// stays behind through propagation, whatever else its directory announces,
// and the periodic reconciliation — the backstop for a lost notice — brings it.
func TestLostFileNoticeConvergesAtReconcile(t *testing.T) {
	c := newTestCluster(t, 2, WithSeed(14), WithPolicy(FirstAvailable))
	m0, err := c.Mount(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m0.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	if err := m0.WriteFile("/d/x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Host(1).PropagateOnce(); err != nil { // drops the notices settling made stale
		t.Fatal(err)
	}
	c.SetLinkDatagramLoss(0, 1, 1)
	if err := m0.WriteFile("/d/x", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if c.NetworkStats().DatagramsDropped == 0 {
		t.Fatal("the update's notice was not dropped")
	}
	c.SetLinkDatagramLoss(0, 1, 0)
	if err := m0.WriteFile("/d/y", []byte("y1")); err != nil {
		t.Fatal(err)
	}
	readAt1 := func(path string) string {
		t.Helper()
		v, err := vnode.Walk(replicaRoot(t, c, 1), path)
		if err != nil {
			t.Fatalf("host 1 %s: %v", path, err)
		}
		data, err := vnode.ReadFile(v)
		if err != nil {
			t.Fatalf("host 1 %s: %v", path, err)
		}
		return string(data)
	}

	if _, err := c.Host(1).PropagateOnce(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.PendingVersionsFor(1)); n != 0 {
		t.Fatalf("host 1: %d notices left after propagation", n)
	}
	if y, x := readAt1("d/y"), readAt1("d/x"); y != "y1" || x != "v1" {
		t.Fatalf("after propagation host 1 has d/y=%q d/x=%q, want y1 and the old v1", y, x)
	}
	if _, err := c.Host(1).ReconcileOnce(); err != nil {
		t.Fatal(err)
	}
	if x := readAt1("d/x"); x != "v2" {
		t.Fatalf("after reconciliation host 1 has d/x=%q, want v2", x)
	}
}
