package recon

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
	"repro/internal/vv"
)

// PeerFinder locates a pull source for a given replica; nil means the
// replica is currently unreachable (its new-version cache entries stay
// queued for a later attempt).  Propagate resolves every origin through the
// finder sequentially, before any pull runs, so implementations that probe
// (Ping) do so in deterministic order.
type PeerFinder func(ids.ReplicaID) Peer

// LatencyReporter is an optional peer capability: the virtual ticks the
// peer's most recent operation spent on the wire.  repl.Client (and the
// health wrappers around it) provide it; a co-resident physical.Layer does
// not — local pulls are free in virtual time.
type LatencyReporter interface {
	LastElapsed() uint64
}

// SlowReporter is an optional peer capability: whether the caller's health
// tracking currently considers this peer Slow (latency EWMA above the slow
// threshold).  A Slow primary with a faster alternate is shed up front.
type SlowReporter interface {
	SlowPeer() bool
}

// AddrKeyer is an optional peer capability: a stable identity for the
// peer's host, used by the per-peer in-flight cap.  Peers without one (the
// co-resident layer) are never capped — local pulls cost no wire time.
type AddrKeyer interface {
	PeerKey() string
}

// PropagateConfig tunes one propagation pass.
type PropagateConfig struct {
	// Policy spaces the retries of failed entries across later passes.
	// Zero value: retry.Default().
	Policy retry.Policy
	// Workers is how many origins one wave holds (default 4).  A wave is
	// virtual-time accounting: its origins are pulled one after another,
	// and the wave costs the pass what its costliest pull cost.
	Workers int

	// HedgeAfter enables hedged pulls: when an origin's pull costs more
	// than HedgeAfter virtual ticks (or fails in transit) and FindHedge
	// knows another replica holding the same versions, a backup pull is
	// issued to it — in virtual time, at tick HedgeAfter — and the first
	// answer wins.  0 disables hedging.
	HedgeAfter uint64
	// FindHedge locates the next-healthiest alternate source for an
	// origin's versions (never the origin itself); nil or a nil return
	// disables hedging for that origin.
	FindHedge func(ids.ReplicaID) Peer
	// TickBudget bounds the virtual makespan of one pass: once the pull
	// waves have consumed the budget, every remaining due entry is left for
	// the next pass (counted in Stats.BudgetDeferred).  The first wave
	// always runs, so a pass makes progress under any budget.  0 = no bound.
	TickBudget uint64
	// PeerInflight caps how many of one wave's origins may pull from the
	// same peer host — backpressure that keeps one slow host from filling
	// the wave.  0 = no cap.
	PeerInflight int
}

// PropagateOnce runs one pass of the update propagation daemon under the
// default configuration (see Propagate).
func PropagateOnce(local *physical.Layer, find PeerFinder) (Stats, error) {
	return Propagate(local, find, PropagateConfig{Policy: retry.Default()})
}

// Propagate runs one pass of the update propagation daemon (paper §3.2):
// "An update propagation daemon consults this [new-version] cache to see
// what new replica versions should be propagated in, and performs the
// propagation when it deems it appropriate to expend the effort."
//
// The pass pulls each pending notification from its originating replica:
//
//   - remote dominates         -> install via the single-file atomic commit
//   - equal or local dominates -> drop the notification (stale news)
//   - concurrent               -> report a conflict to the owner and drop
//   - origin unreachable       -> keep the entry, backed off for later
//
// Due entries are grouped by origin: each origin is consulted once via the
// finder and pulled with a single conditional pull that advertises the blocks
// of the versions it replaces, so only missing blocks ship.  The origins are
// pulled one after another on the caller's goroutine, in waves that account
// virtual time under the backpressure knobs (TickBudget, PeerInflight),
// optionally hedged (HedgeAfter/FindHedge); every state change to the local
// replica's daemon machinery — drops, deferrals, conflict reports, stats,
// the error join — is then applied by a reduce in sorted origin order,
// preserving entry order within each origin.  Virtual time, seeded latency
// draws and deterministic wave packing mean two passes over the same state
// produce identical Stats, conflict logs and backoff schedules.
//
// Partial operation is the normal status: a failure on one entry never
// starves the rest of the pass.  Failed entries stay in the new-version
// cache with their attempt count bumped and their next attempt deferred
// under the policy's backoff, so a flapping origin is polled ever more
// rarely instead of on every pass.  Transient failures are reported only
// through Stats (Deferred/Failures); the returned error aggregates
// permanent, corruption-class errors alone.
//
// Directories are propagated by replaying operations, not by copying
// ("simply copying directory contents is incorrect"), so a notification
// about a directory merges that one directory from the origin (run in the
// sequential reduce, since it mutates shared subtrees): one DirEntries, the
// merge, and one pull of the files it names that this replica stores no copy
// of.  A child directory not stored here yet is reconciled whole; a stored
// file or child directory that changed has its own notice, and the periodic
// reconciliation is the backstop for a notice that was lost.
func Propagate(local *physical.Layer, find PeerFinder, cfg PropagateConfig) (Stats, error) {
	if cfg.Policy.MaxAttempts == 0 && cfg.Policy.BaseBackoff == 0 {
		cfg.Policy = retry.Default()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	now := local.AdvanceDaemonTick()
	var stats Stats
	var errs []error

	// Split the due entries by origin.  Entries still backing off are
	// deferred without consulting the finder at all.
	byOrigin := make(map[ids.ReplicaID][]physical.NewVersion)
	for _, nv := range local.PendingVersions() {
		if nv.NotBefore > now {
			stats.Deferred++ // backing off; not due this pass
			continue
		}
		byOrigin[nv.Origin] = append(byOrigin[nv.Origin], nv)
	}
	origins := make([]ids.ReplicaID, 0, len(byOrigin))
	for origin := range byOrigin {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	// Resolve every origin's pull source up front, sequentially in sorted
	// order (ungated finders probe; sequential resolution keeps the probes
	// deterministic), then pack the reachable origins into waves: each wave
	// holds at most `workers` origins and at most PeerInflight origins per
	// peer host.
	peers := make([]Peer, len(origins))
	runnable := make([]int, 0, len(origins))
	for i, origin := range origins {
		peers[i] = find(origin)
		if peers[i] != nil {
			runnable = append(runnable, i)
		}
	}
	waves := packWaves(runnable, workers, cfg.PeerInflight, func(i int) string { return peerKeyOf(peers[i]) })

	// Pull the waves in order, each wave's origins one after another, on
	// this goroutine; the pulls only read remote state and install file
	// versions, and all daemon bookkeeping waits for the reduce below.  A
	// wave is virtual-time accounting: the pass's virtual makespan is the sum
	// over waves of the costliest origin in each, and once it reaches the
	// tick budget the remaining waves are skipped — their entries stay due
	// for the next pass.
	results := make([]originResult, len(origins))
	overBudget := false
	for _, wave := range waves {
		var waveMax uint64
		for _, i := range wave {
			res := &results[i]
			if overBudget {
				res.budgetSkipped = true
				continue
			}
			src := &hedgedSource{Peer: peers[i], after: cfg.HedgeAfter, res: res}
			if cfg.HedgeAfter > 0 && cfg.FindHedge != nil {
				if b := cfg.FindHedge(origins[i]); b != nil && !samePeer(b, peers[i]) {
					src.backup = b
				}
			}
			entries := byOrigin[origins[i]]
			items := make([]pullItem, len(entries))
			for k, nv := range entries {
				items[k] = pullItem{dir: nv.Dir, file: nv.File}
			}
			res.outcomes = pullAndApply(local, src, items, true)
			waveMax = max(waveMax, res.cost)
		}
		stats.PassTicks += waveMax
		overBudget = cfg.TickBudget > 0 && stats.PassTicks >= cfg.TickBudget
	}

	// Deterministic merge: sorted origin order, entry order within each.
	fail := func(nv physical.NewVersion, err error) {
		stats.Failures++
		local.DeferPending(nv.File, now+cfg.Policy.Backoff(nv.Attempts+1, propagationKey(nv)))
		if !retry.Transient(err) {
			errs = append(errs, fmt.Errorf("propagate %v from replica %d: %w", nv.File, nv.Origin, err))
		}
	}
	for oi, origin := range origins {
		entries := byOrigin[origin]
		res := results[oi]
		if res.budgetSkipped {
			// Tick budget exhausted before this origin's wave: leave the
			// entries untouched (no attempt was made, so no backoff bump) —
			// they are due again on the very next pass.  Partial progress,
			// not starvation.
			stats.BudgetDeferred += len(entries)
			continue
		}
		if peers[oi] == nil {
			// Origin unreachable (or health-gated): no attempt made.
			for _, nv := range entries {
				stats.Deferred++
				local.DeferPending(nv.File, now+cfg.Policy.Backoff(nv.Attempts+1, propagationKey(nv)))
			}
			continue
		}
		if res.shed {
			stats.SlowSheds++
		}
		if res.hedged {
			stats.Hedges++
		}
		if res.hedgeWon {
			stats.HedgeWins++
		}
		for i, nv := range entries {
			out := res.outcomes[i]
			switch out.kind {
			case outInstalled:
				stats.FilesPulled++
				local.DropPending(nv.File)
			case outStale, outNotStored:
				// Stale news, or the origin no longer stores the file (the
				// tombstone will arrive through directory reconciliation).
				local.DropPending(nv.File)
			case outSkipped:
				stats.Skipped++
				local.DropPending(nv.File)
			case outConflict:
				stats.Conflicts++
				reportConflict(local, nv.Dir, nv.File, out, res.src, "update propagation")
				local.DropPending(nv.File)
			case outIsDir:
				childPath := append(append([]ids.FileID(nil), nv.Dir...), nv.File)
				sub, err := reconcile(local, res.src, childPath, notice)
				stats.Add(sub)
				if err != nil {
					fail(nv, err)
				} else {
					local.DropPending(nv.File)
				}
			default: // outFailed
				fail(nv, out.err)
			}
		}
	}
	return stats, errors.Join(errs...)
}

// packWaves packs origin indices (already in sorted-origin order) into
// waves of at most workers origins with at most perPeer origins per peer
// key.  An origin that does not fit the current wave is considered for the
// next; packing depends only on the input order and the caps.
func packWaves(idxs []int, workers, perPeer int, key func(int) string) [][]int {
	var waves [][]int
	pending := idxs
	for len(pending) > 0 {
		wave := make([]int, 0, workers)
		counts := make(map[string]int)
		var rest []int
		for _, i := range pending {
			k := key(i)
			if len(wave) < workers && (perPeer <= 0 || k == "" || counts[k] < perPeer) {
				wave = append(wave, i)
				counts[k]++
			} else {
				rest = append(rest, i)
			}
		}
		waves = append(waves, wave)
		pending = rest
	}
	return waves
}

func peerKeyOf(p Peer) string {
	if ak, ok := p.(AddrKeyer); ok {
		return ak.PeerKey()
	}
	return ""
}

func elapsedOf(p Peer) uint64 {
	if lr, ok := p.(LatencyReporter); ok {
		return lr.LastElapsed()
	}
	return 0
}

func isSlow(p Peer) bool {
	if sr, ok := p.(SlowReporter); ok {
		return sr.SlowPeer()
	}
	return false
}

// samePeer reports whether two pull sources are the same endpoint (a hedge
// to the same host would wait in the same queue and win nothing).
func samePeer(a, b Peer) bool {
	ka, kb := peerKeyOf(a), peerKeyOf(b)
	if ka != "" || kb != "" {
		return ka == kb
	}
	return a.Replica() == b.Replica()
}

// propagationKey seeds the backoff jitter so distinct files retrying after
// the same outage spread across later passes instead of stampeding.
func propagationKey(nv physical.NewVersion) uint64 {
	return nv.File.Seq ^ uint64(nv.File.Issuer)<<32 ^ uint64(nv.Origin)<<48
}

// originResult carries one origin's pull results to the reduce.
type originResult struct {
	src      Peer // the source whose answers were applied (hedging may differ)
	outcomes []entryOutcome

	cost          uint64 // effective virtual ticks of this origin's pull
	shed          bool   // Slow primary swapped for a faster alternate
	hedged        bool   // a backup pull was issued
	hedgeWon      bool   // ...and answered first
	budgetSkipped bool   // wave skipped by the tick budget; entries untouched
}

// hedgeInconclusiveError defers an entry whose only answer came from a
// backup replica that had not yet seen the version it was asked about: the
// backup's "stale" or "not stored" verdict proves nothing about the origin.
type hedgeInconclusiveError struct{}

func (hedgeInconclusiveError) Error() string {
	return "recon: hedged pull inconclusive (backup replica lacks the version)"
}

func (hedgeInconclusiveError) Transient() bool { return true }

// hedgedSource is one origin's pull source under the hedging config: a Peer
// whose pull is a deterministic virtual-time race.  The primary pull runs
// first; if its virtual cost exceeds HedgeAfter (or it failed in transit) a
// backup pull is issued to the next-healthiest replica holding the same
// versions, modeled as having started at tick HedgeAfter.  The source with
// the earlier virtual completion wins and its answers are returned; the
// loser's are discarded ("cancelled") — except that a backup's stale/not-
// stored verdicts never override the origin's answer, and when only the
// backup answered they defer the entry instead of dropping it.  What the race
// came to is recorded in res.
type hedgedSource struct {
	Peer          // the origin
	backup Peer   // nil: nothing to hedge with
	after  uint64 // HedgeAfter
	res    *originResult
}

func (h *hedgedSource) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	res := h.res
	primary, backup := h.Peer, h.backup
	// Load shedding — the circuit-breaker half: a primary the health
	// tracker rates Slow is swapped for a faster alternate up front, so a
	// degrading peer loses traffic before it fails outright.
	if backup != nil && isSlow(primary) && !isSlow(backup) {
		primary, backup = backup, primary
		res.shed = true
	}
	resP, errP := pullFrom(primary, reqs, have)
	costP := elapsedOf(primary)
	res.cost, res.src = costP, primary
	if backup == nil || (errP == nil && costP <= h.after) {
		return resP, errP
	}

	// Hedge: the backup pull starts, in virtual time, at tick HedgeAfter.
	res.hedged = true
	resB, errB := pullFrom(backup, reqs, have)
	tB := h.after + elapsedOf(backup)
	switch {
	case errB != nil:
		// The backup failed in transit: the primary's answer stands, or the
		// batch waited out both sources.
		if errP != nil {
			res.cost = max(costP, tB)
		}
		return resP, errP
	case errP == nil && tB >= costP:
		return resP, nil // the primary still answered first
	}
	res.hedgeWon = true
	res.cost, res.src = tB, backup
	for k := range resB {
		// Data, a directory verdict, and a concurrent-history verdict are
		// facts about versions the backup holds; "stale" and "not stored" may
		// just mean the backup has not caught up.
		if s := resB[k].Status; s == physical.PullData || s == physical.PullIsDir || s == physical.PullConcurrent {
			continue
		}
		if errP == nil {
			resB[k] = resP[k] // the origin's verdict stands
		} else {
			resB[k] = physical.PullResult{Status: physical.PullError, Err: hedgeInconclusiveError{}}
		}
	}
	return resB, nil
}

// Resolve installs a conflict resolution: newData becomes the file's
// contents under a version vector that dominates both conflicting histories
// (merge + a local bump), so the resolution propagates everywhere like any
// other update.  This is the owner-facing half of "detected and reported to
// the owner".
func Resolve(local *physical.Layer, c physical.Conflict, newData []byte) error {
	merged := vv.Merge(c.LocalVV, c.RemoteVV).Bump(local.Replica())
	return local.InstallFileVersion(c.Dir, c.File, physical.KFile, newData, merged, 1)
}
