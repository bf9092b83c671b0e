package recon

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
)

// netPeer wraps a layer-backed peer in a fake network personality: a fixed
// virtual latency per pull, a host key, a Slow verdict, and an optional
// transit failure.
type netPeer struct {
	Peer
	cost  uint64
	key   string
	slow  bool
	fail  error
	calls int
}

func newNetPeer(l *physical.Layer, cost uint64, key string) *netPeer {
	return &netPeer{Peer: l, cost: cost, key: key}
}

func (p *netPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	p.calls++
	if p.fail != nil {
		return nil, p.fail
	}
	return p.Peer.PullBatchDelta(reqs, have)
}

func (p *netPeer) LastElapsed() uint64 { return p.cost }
func (p *netPeer) SlowPeer() bool      { return p.slow }
func (p *netPeer) PeerKey() string     { return p.key }

// hedgedSetup: origin replica 2 holds the files; replica 3 has already
// reconciled from it, so it can serve the same versions as a backup.
func hedgedSetup(t *testing.T, names ...string) (local, origin, backupL *physical.Layer, fids []ids.FileID) {
	t.Helper()
	local = newReplica(t, 1)
	origin = newReplica(t, 2)
	backupL = newReplica(t, 3)
	fids = mkRemoteFiles(t, origin, names...)
	if _, err := ReconcileVolume(backupL, origin); err != nil {
		t.Fatal(err)
	}
	for _, fid := range fids {
		local.NoteNewVersion(physical.RootPath(), fid, 2)
	}
	return
}

// TestHedgedPullBackupWins: the primary answers, but slower than the
// hedging threshold plus the backup's whole pull — so the backup's answer
// is applied and the pass's virtual cost is the hedged completion time.
func TestHedgedPullBackupWins(t *testing.T) {
	local, origin, backupL, _ := hedgedSetup(t, "f")
	primary := newNetPeer(origin, 100, "h2")
	backup := newNetPeer(backupL, 5, "h3")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		HedgeAfter: 10,
		FindHedge:  func(ids.ReplicaID) Peer { return backup },
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 1 || stats.Hedges != 1 || stats.HedgeWins != 1 {
		t.Fatalf("stats %v: want 1 pull, 1 hedge, 1 win", stats)
	}
	if want := cfg.HedgeAfter + backup.cost; stats.PassTicks != want {
		t.Fatalf("PassTicks = %d, want hedged completion %d", stats.PassTicks, want)
	}
	if backup.calls != 1 || primary.calls != 1 {
		t.Fatalf("calls: primary %d backup %d, want 1 each", primary.calls, backup.calls)
	}
	if len(local.PendingVersions()) != 0 {
		t.Fatal("entry not dropped after hedged install")
	}
}

// TestHedgeNotIssuedWhenPrimaryFast: a pull within the threshold never
// spends the backup's effort.
func TestHedgeNotIssuedWhenPrimaryFast(t *testing.T) {
	local, origin, backupL, _ := hedgedSetup(t, "f")
	primary := newNetPeer(origin, 5, "h2")
	backup := newNetPeer(backupL, 1, "h3")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		HedgeAfter: 10,
		FindHedge:  func(ids.ReplicaID) Peer { return backup },
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("stats=%v err=%v", stats, err)
	}
	if stats.Hedges != 0 || backup.calls != 0 {
		t.Fatalf("hedge issued for a fast primary: stats=%v backupCalls=%d", stats, backup.calls)
	}
	if stats.PassTicks != primary.cost {
		t.Fatalf("PassTicks = %d, want %d", stats.PassTicks, primary.cost)
	}
}

// TestHedgePrimaryWinsRace: the hedge fires, but the primary's completion
// still beats HedgeAfter + backup cost — the primary's answers are applied
// and the backup's are the ones cancelled.
func TestHedgePrimaryWinsRace(t *testing.T) {
	local, origin, backupL, _ := hedgedSetup(t, "f")
	primary := newNetPeer(origin, 12, "h2")
	backup := newNetPeer(backupL, 50, "h3")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		HedgeAfter: 10,
		FindHedge:  func(ids.ReplicaID) Peer { return backup },
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("stats=%v err=%v", stats, err)
	}
	if stats.Hedges != 1 || stats.HedgeWins != 0 {
		t.Fatalf("stats %v: want hedge issued but primary winning", stats)
	}
	if stats.PassTicks != primary.cost {
		t.Fatalf("PassTicks = %d, want primary's %d", stats.PassTicks, primary.cost)
	}
}

// TestHedgeBackupInconclusiveDefers: the primary fails in transit and the
// backup — which never saw the version — answers "not stored".  That
// verdict proves nothing about the origin's version, so the entry must be
// deferred for retry, not dropped.
func TestHedgeBackupInconclusiveDefers(t *testing.T) {
	local := newReplica(t, 1)
	origin := newReplica(t, 2)
	behind := newReplica(t, 3) // never reconciled: lacks the version
	fids := mkRemoteFiles(t, origin, "f")
	local.NoteNewVersion(physical.RootPath(), fids[0], 2)

	primary := newNetPeer(origin, 100, "h2")
	primary.fail = &transientErr{}
	backup := newNetPeer(behind, 5, "h3")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		HedgeAfter: 10,
		FindHedge:  func(ids.ReplicaID) Peer { return backup },
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil {
		t.Fatalf("inconclusive hedge surfaced as pass error: %v", err)
	}
	if stats.Hedges != 1 || stats.Failures != 1 || stats.FilesPulled != 0 {
		t.Fatalf("stats %v: want hedge + deferred failure, no pull", stats)
	}
	pend := local.PendingVersions()
	if len(pend) != 1 || pend[0].Attempts != 1 {
		t.Fatalf("entry must stay pending under backoff: %+v", pend)
	}
}

// TestSlowShedSwapsToBackup: a primary the health tracker rates Slow is
// swapped for a healthy backup before the pull, so no hedge is needed and
// the slow host sees no traffic at all.
func TestSlowShedSwapsToBackup(t *testing.T) {
	local, origin, backupL, _ := hedgedSetup(t, "f")
	primary := newNetPeer(origin, 100, "h2")
	primary.slow = true
	backup := newNetPeer(backupL, 5, "h3")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		HedgeAfter: 10,
		FindHedge:  func(ids.ReplicaID) Peer { return backup },
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("stats=%v err=%v", stats, err)
	}
	if stats.SlowSheds != 1 || stats.Hedges != 0 {
		t.Fatalf("stats %v: want 1 shed, 0 hedges", stats)
	}
	if primary.calls != 0 || backup.calls != 1 {
		t.Fatalf("calls: primary %d backup %d — slow host should see none", primary.calls, backup.calls)
	}
	if stats.PassTicks != backup.cost {
		t.Fatalf("PassTicks = %d, want shed cost %d", stats.PassTicks, backup.cost)
	}
}

// TestTickBudgetDefersLaterWaves: once the first origin's pull exhausts the
// budget, the second origin's entries are left untouched — still due on the
// very next pass, with no backoff penalty for work never attempted.
func TestTickBudgetDefersLaterWaves(t *testing.T) {
	local := newReplica(t, 1)
	origin2 := newReplica(t, 2)
	origin3 := newReplica(t, 3)
	fidA := mkRemoteFiles(t, origin2, "a")[0]
	fidB := mkRemoteFiles(t, origin3, "b")[0]
	local.NoteNewVersion(physical.RootPath(), fidA, 2)
	local.NoteNewVersion(physical.RootPath(), fidB, 3)

	peers := map[ids.ReplicaID]*netPeer{
		2: newNetPeer(origin2, 50, "h2"),
		3: newNetPeer(origin3, 50, "h3"),
	}
	find := func(r ids.ReplicaID) Peer { return peers[r] }
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		TickBudget: 40,
	}
	stats, err := Propagate(local, find, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 1 || stats.BudgetDeferred != 1 {
		t.Fatalf("stats %v: want 1 pulled, 1 budget-deferred", stats)
	}
	if stats.PassTicks != 50 {
		t.Fatalf("PassTicks = %d, want the first pull's 50", stats.PassTicks)
	}
	pend := local.PendingVersions()
	if len(pend) != 1 || pend[0].File != fidB {
		t.Fatalf("pending after budgeted pass: %+v", pend)
	}
	if pend[0].Attempts != 0 || pend[0].NotBefore != 0 {
		t.Fatalf("budget-deferred entry must carry no backoff penalty: %+v", pend[0])
	}

	// Next pass, unconstrained: the deferred origin drains immediately.
	cfg.TickBudget = 0
	stats, err = Propagate(local, find, cfg)
	if err != nil || stats.FilesPulled != 1 || stats.BudgetDeferred != 0 {
		t.Fatalf("drain pass: stats=%v err=%v", stats, err)
	}
	if len(local.PendingVersions()) != 0 {
		t.Fatal("entries remain after drain pass")
	}
}

// TestTickBudgetFirstWaveAlwaysRuns: a budget smaller than any single pull
// still makes progress — the first pull is exempt, so a pass can never
// starve entirely.
func TestTickBudgetFirstWaveAlwaysRuns(t *testing.T) {
	local, origin, _, _ := hedgedSetup(t, "f")
	primary := newNetPeer(origin, 100, "h2")
	cfg := PropagateConfig{
		Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
		TickBudget: 1,
	}
	stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
	if err != nil || stats.FilesPulled != 1 {
		t.Fatalf("stats=%v err=%v: first pull must run under any budget", stats, err)
	}
}

// TestPassTicksSumsSerialPulls: a pass pulls its origins one after another,
// so PassTicks is the sum of their pulls, and the budget is checked before
// each origin — three origins on three hosts at 50 ticks each cost 150, and
// a 60-tick budget admits the second pull (50 < 60) but not the third.
func TestPassTicksSumsSerialPulls(t *testing.T) {
	setup := func() (*physical.Layer, PeerFinder) {
		local := newReplica(t, 1)
		peers := map[ids.ReplicaID]*netPeer{}
		for r := ids.ReplicaID(2); r <= 4; r++ {
			origin := newReplica(t, r)
			fid := mkRemoteFiles(t, origin, fmt.Sprintf("f%d", r))[0]
			local.NoteNewVersion(physical.RootPath(), fid, r)
			peers[r] = newNetPeer(origin, 50, fmt.Sprintf("h%d", r))
		}
		return local, func(r ids.ReplicaID) Peer { return peers[r] }
	}
	policy := retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8}

	local, find := setup()
	stats, err := Propagate(local, find, PropagateConfig{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 3 || stats.PassTicks != 150 {
		t.Fatalf("unbudgeted pass: stats %v, want 3 pulled in 150 ticks", stats)
	}

	local, find = setup()
	stats, err = Propagate(local, find, PropagateConfig{Policy: policy, TickBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesPulled != 2 || stats.BudgetDeferred != 1 || stats.PassTicks != 100 {
		t.Fatalf("budgeted pass: stats %v, want 2 pulled, 1 budget-deferred, 100 ticks", stats)
	}
	pend := local.PendingVersions()
	if len(pend) != 1 || pend[0].Origin != 4 {
		t.Fatalf("pending after budgeted pass: %+v, want origin 4's entry", pend)
	}
	if pend[0].Attempts != 0 || pend[0].NotBefore != 0 {
		t.Fatalf("budget-deferred entry must carry no backoff penalty: %+v", pend[0])
	}
}

// TestPropagateHedgedDeterministic: two identical runs with hedging and a
// budget produce identical Stats.
func TestPropagateHedgedDeterministic(t *testing.T) {
	run := func() Stats {
		local := newReplica(t, 1)
		origin := newReplica(t, 2)
		backupL := newReplica(t, 3)
		fids := mkRemoteFiles(t, origin, "a", "b", "c", "d")
		if _, err := ReconcileVolume(backupL, origin); err != nil {
			t.Fatal(err)
		}
		for _, fid := range fids {
			local.NoteNewVersion(physical.RootPath(), fid, 2)
		}
		primary := newNetPeer(origin, 40, "h2")
		backup := newNetPeer(backupL, 5, "h3")
		cfg := PropagateConfig{
			Policy:     retry.Policy{MaxAttempts: 1, BaseBackoff: 1, MaxBackoff: 8},
			HedgeAfter: 10,
			FindHedge:  func(ids.ReplicaID) Peer { return backup },
			TickBudget: 1000,
		}
		stats, err := Propagate(local, func(ids.ReplicaID) Peer { return primary }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("hedged propagation not deterministic:\n  %v\n  %v", a, b)
	}
}
