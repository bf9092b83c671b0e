package ficus

// Slow-peer chaos: heavy-tailed latency on every link, a deterministically
// slow link to force hedging, and one peer that hangs — accepts RPCs, runs
// the handlers, never replies.  Under RPC deadlines, latency-aware health,
// hedged pulls, and the propagation tick budget, the cluster must keep
// making bounded-cost progress through the chaos and converge exactly once
// the hung peer answers again.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/ufs"
)

func TestChaosSlowPeerConvergence(t *testing.T) {
	const hosts = 4
	const budget = 600
	const deadline = 60
	c, err := NewCluster(hosts, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	c.ConfigureSlowPeers(SlowPeerConfig{
		RPCDeadline:  deadline,
		SlowAfter:    25,
		HedgeAfter:   30,
		TickBudget:   budget,
		PeerInflight: 2,
	})
	// Heavy tail everywhere; host 1's link to host 0 is persistently slow,
	// so host 1's pulls from origin replicas on host 0 always cross the
	// hedging threshold.
	c.InjectLatency(LatencyConfig{BaseTicks: 8, JitterTicks: 6, SpikeRate: 0.15, SpikeTicks: 150})
	c.InjectLinkLatency(1, 0, LatencyConfig{BaseTicks: 40, JitterTicks: 10})

	mounts := make([]*Mount, hosts)
	for i := range mounts {
		if mounts[i], err = c.Mount(i); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct paths per host: chaos about timing, not about conflicts.
	write := func(h, step int) {
		if err := mounts[h].WriteFile(fmt.Sprintf("/h%d-s%d", h, step), []byte(fmt.Sprintf("payload %d.%d", h, step))); err != nil {
			t.Fatalf("host %d write: %v", h, err)
		}
	}
	for step := 0; step < 3; step++ {
		for h := 0; h < hosts; h++ {
			write(h, step)
		}
		if _, err := c.Propagate(); err != nil {
			t.Fatalf("propagate step %d: %v", step, err)
		}
	}

	// Host 3 hangs: writes made on it beforehand leave the other hosts with
	// pending pulls that can only deadline-miss until it answers again.
	// While a most-recent replica is dark, writes may surface availability
	// errors (the logical layer ships close through the freshest reachable
	// parent, which can lack a just-created file) — those are legitimate
	// outcomes, the same class the other chaos tests tolerate.  Anything
	// else is a real failure.
	writeLoose := func(h, step int) {
		err := mounts[h].WriteFile(fmt.Sprintf("/h%d-s%d", h, step), []byte(fmt.Sprintf("payload %d.%d", h, step)))
		if err == nil || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotExist) ||
			errors.Is(err, ErrConflict) {
			return
		}
		t.Fatalf("host %d write under hang: unexpected error class: %v", h, err)
	}
	write(3, 100)
	c.HangHost(3)
	for h := 0; h < 3; h++ {
		writeLoose(h, 101)
	}
	for pass := 0; pass < 4; pass++ {
		for h := 0; h < hosts; h++ {
			stats, err := c.Host(h).PropagateOnce()
			if err != nil {
				t.Fatalf("host %d pass %d: %v", h, pass, err)
			}
			// The budget check runs between waves, so a pass may overshoot
			// by at most the final wave it admitted; with the client's three
			// in-call attempts a hedged, deadline-missing wave costs a few
			// deadlines at worst.
			if max := uint64(budget + 8*deadline); stats.PassTicks > max {
				t.Fatalf("host %d pass %d: PassTicks %d exceeds budget bound %d", h, pass, stats.PassTicks, max)
			}
		}
	}
	// Reconciliation — never health-gated — is what keeps RPCing the hung
	// peer, paying the deadline each time instead of waiting forever.
	if _, err := c.Reconcile(); err != nil {
		t.Fatalf("reconcile while hung: %v", err)
	}

	ns := c.NetworkStats()
	if ns.RPCHangs == 0 {
		t.Fatal("no hung RPCs recorded while a host was hung")
	}
	if ns.RPCDeadlineMisses == 0 {
		t.Fatal("no deadline misses recorded: hung RPCs must cost exactly the deadline")
	}
	if ns.RPCLatencySpikes == 0 {
		t.Fatal("no latency spikes drawn under a heavy-tail profile")
	}
	var hedges, misses int
	for h := 0; h < hosts; h++ {
		hedges += c.PropagationStatsFor(h).Hedges
		for _, ph := range c.PeerHealthFor(h) {
			misses += int(ph.DeadlineMisses)
		}
	}
	if hedges == 0 {
		t.Fatal("no hedged pulls despite a persistently slow link")
	}
	if misses == 0 {
		t.Fatal("no tracked per-peer deadline misses")
	}

	// The hung peer answers again: everything converges, still under the
	// latency plane.
	c.UnhangHost(3)
	if err := c.Settle(40); err != nil {
		t.Fatal(err)
	}
	want := treeOf(t, c, 0, true)
	for h := 1; h < hosts; h++ {
		if got := treeOf(t, c, h, true); got != want {
			t.Fatalf("host %d diverged after unhang+settle:\n--- host 0\n%s\n--- host %d\n%s", h, want, h, got)
		}
	}
	probs, err := c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 0 {
		t.Fatalf("fsck problems after slow-peer chaos: %v", probs)
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
