package recon

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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

// BatchPuller is the batched fast path of a propagation peer: one call
// answers a whole batch of conditional pulls, shipping file data only for
// entries whose remote version dominates the local vector.  *physical.Layer
// (co-resident origin) and repl.Client (remote origin, one RPC per batch)
// both provide it.  Peers without it — or passes with DisableBatch set —
// fall back to the per-file FileInfo/FileData protocol.
type BatchPuller interface {
	PullBatch([]physical.PullRequest) ([]physical.PullResult, error)
}

var _ BatchPuller = (*physical.Layer)(nil)

// DeltaPuller is the block-delta fast path (wire v3): the puller advertises
// the block addresses it already holds, and the origin answers PullData
// entries as (manifest, missing blocks) so unchanged blocks never ship.
// *physical.Layer provides it directly; repl.Client provides it with
// transparent per-peer downgrade, answering whole-file pulls when the far
// side predates the delta op; physical.InstallPulled takes either answer.
type DeltaPuller interface {
	BatchPuller
	PullBatchDelta([]physical.PullRequest, []physical.BlockAddr) ([]physical.PullResult, error)
}

var _ DeltaPuller = (*physical.Layer)(nil)

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
	// Policy classifies per-entry errors and spaces the retries of failed
	// entries across later passes.  Zero value: retry.Default().
	Policy retry.Policy
	// Workers bounds how many origins are pulled concurrently (default 4).
	// Results are always applied in sorted origin order, so the worker
	// count affects wall time only, never the outcome.
	Workers int
	// DisableBatch forces the sequential per-file pull protocol even when
	// the peer supports batched pulls (the benchmark baseline).
	DisableBatch bool
	// DisableDelta forces whole-file batched pulls even when the peer
	// supports block-delta pulls (the benchmark baseline for E13).
	DisableDelta bool

	// HedgeAfter enables hedged batched pulls: when an origin's pull costs
	// more than HedgeAfter virtual ticks (or fails in transit) and FindHedge
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
	// PeerInflight caps how many origins may pull from the same peer host
	// concurrently (per wave) — backpressure that keeps one slow host from
	// absorbing the whole worker pool.  0 = no cap.
	PeerInflight int
	// OnPullTicks, when set, receives each origin pull's effective virtual
	// latency (after hedging), in deterministic sorted-origin order — the
	// benchmarks' percentile probe.
	OnPullTicks func(uint64)
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
// finder and pulled with a single batched conditional pull (peers without
// the batch op fall back to per-file pulls).  Origins run in waves through
// a bounded worker pool under the backpressure knobs (TickBudget,
// PeerInflight), optionally hedged (HedgeAfter/FindHedge); but every state
// change to the local replica's daemon machinery — drops, deferrals,
// conflict reports, stats, the error join — is applied by a sequential
// reduce in sorted origin order, preserving entry order within each origin.
// Virtual time, seeded latency draws, and deterministic wave packing mean
// two passes over the same state produce identical Stats, conflict logs,
// and backoff schedules regardless of worker interleaving.
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
// about a directory triggers a directory reconciliation against the origin
// (run in the sequential reduce, since it mutates shared subtrees).
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

	// Pull each wave on the worker pool.  Workers only read remote state
	// and install file versions (individually atomic and commutative across
	// distinct files); all daemon bookkeeping waits for the reduce below.
	// The pass's virtual makespan is the sum over waves of the costliest
	// origin in each wave; once it exceeds the tick budget the remaining
	// waves are skipped — their entries stay due for the next pass.
	results := make([]originResult, len(origins))
	overBudget := false
	for _, wave := range waves {
		if overBudget {
			for _, i := range wave {
				results[i].budgetSkipped = true
			}
			continue
		}
		var wg sync.WaitGroup
		for _, i := range wave {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = runOrigin(local, peers[i], byOrigin[origins[i]], cfg)
			}(i)
		}
		wg.Wait()
		var waveMax uint64
		for _, i := range wave {
			if results[i].cost > waveMax {
				waveMax = results[i].cost
			}
		}
		stats.PassTicks += waveMax
		if cfg.TickBudget > 0 && stats.PassTicks >= cfg.TickBudget {
			overBudget = true
		}
	}

	// Deterministic merge: sorted origin order, entry order within each.
	fail := func(nv physical.NewVersion, err error) {
		stats.Failures++
		local.DeferPending(nv.File, now+cfg.Policy.Backoff(nv.Attempts+1, propagationKey(nv)))
		if !cfg.Policy.IsTransient(err) {
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
		if res.peer == nil {
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
		if res.pulled && cfg.OnPullTicks != nil {
			cfg.OnPullTicks(res.cost)
		}
		for i, nv := range entries {
			out := res.outcomes[i]
			switch out.kind {
			case outInstalled:
				stats.FilesPulled++
				local.DropPending(nv.File)
			case outDrop:
				local.DropPending(nv.File)
			case outSkipped:
				stats.Skipped++
				local.DropPending(nv.File)
			case outConflict:
				stats.Conflicts++
				local.ReportConflict(physical.Conflict{
					File:     nv.File,
					Dir:      append([]ids.FileID(nil), nv.Dir...),
					LocalVV:  out.localVV.Clone(),
					RemoteVV: out.remoteVV.Clone(),
					Remote:   res.src.Replica(),
					Note:     "concurrent update detected during update propagation",
				})
				local.DropPending(nv.File)
			case outIsDir:
				childPath := append(append([]ids.FileID(nil), nv.Dir...), nv.File)
				sub, err := ReconcileSubtree(local, res.src, childPath)
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
// next; packing depends only on the input order and the caps, so it is
// deterministic under any goroutine interleaving.
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

type outcomeKind byte

const (
	outFailed    outcomeKind = iota // attempt failed; err explains
	outInstalled                    // version installed
	outDrop                         // stale news or remote tombstone; just drop
	outSkipped                      // data or container vanished; drop and count Skipped
	outConflict                     // concurrent histories; report to the owner
	outIsDir                        // directory: reconcile the subtree in the reduce
)

// entryOutcome is one entry's result as computed on the worker, applied
// later by the sequential reduce.
type entryOutcome struct {
	kind     outcomeKind
	err      error     // outFailed
	localVV  vv.Vector // outConflict
	remoteVV vv.Vector // outConflict
}

// originResult carries one origin's pull results back to the reduce.  A nil
// peer means the finder had no route to the origin.
type originResult struct {
	peer     Peer // the origin source the finder resolved (nil: unreachable)
	src      Peer // the source whose answers were applied (hedging may differ)
	outcomes []entryOutcome

	cost          uint64 // effective virtual ticks of this origin's pull
	pulled        bool   // a pull was actually attempted on the wire
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

// runOrigin pulls one origin's due entries on a worker goroutine.
func runOrigin(local *physical.Layer, peer Peer, entries []physical.NewVersion, cfg PropagateConfig) originResult {
	res := originResult{peer: peer, src: peer, outcomes: make([]entryOutcome, len(entries))}
	bp, batched := peer.(BatchPuller)
	if !batched || cfg.DisableBatch {
		var cost uint64
		for i, nv := range entries {
			res.outcomes[i] = attemptSequential(local, peer, nv, &cost)
		}
		res.cost, res.pulled = cost, true
		return res
	}
	runOriginBatched(local, peer, bp, entries, cfg, &res)
	return res
}

// batchPlan is one origin batch, built once and reusable by both the
// primary and a hedged backup pull (the requests carry the same local
// vectors either way).
type batchPlan struct {
	reqs   []physical.PullRequest
	reqIdx []int
	locals []vv.Vector
	delta  bool // local versions were indexed for a delta advertisement
}

// buildBatch assembles the conditional pull for one origin's entries,
// filling early outcomes for entries that fail locally.  When a delta-
// capable source will serve the batch, the local versions are indexed into
// the block pool so the advertisement can dedup against their blocks.
func buildBatch(local *physical.Layer, entries []physical.NewVersion, delta bool, outcomes []entryOutcome) batchPlan {
	plan := batchPlan{
		reqs:   make([]physical.PullRequest, 0, len(entries)),
		reqIdx: make([]int, 0, len(entries)),
		locals: make([]vv.Vector, len(entries)),
		delta:  delta,
	}
	for i, nv := range entries {
		linfo, err := local.FileInfo(nv.Dir, nv.File)
		switch {
		case err == nil:
			plan.locals[i] = linfo.Aux.VV
			plan.reqs = append(plan.reqs, physical.PullRequest{Dir: nv.Dir, File: nv.File, LocalVV: linfo.Aux.VV, HasLocal: true})
			if delta && !linfo.Aux.Type.IsDir() {
				// Best-effort — an entry that cannot be indexed (quarantined,
				// racing eviction) simply gains nothing from the delta and
				// pulls whole blocks; the install path verifies everything
				// regardless.
				_ = local.EnsureBlocks(nv.Dir, nv.File)
			}
		case errors.Is(err, physical.ErrNotStored):
			plan.reqs = append(plan.reqs, physical.PullRequest{Dir: nv.Dir, File: nv.File})
		default:
			outcomes[i] = entryOutcome{kind: outFailed, err: err}
			continue
		}
		plan.reqIdx = append(plan.reqIdx, i)
	}
	return plan
}

// doPull issues one batched conditional pull to src, preferring the delta
// op when src supports it and the pass allows it.  Returns the per-entry
// results and the pull's virtual latency.
func doPull(local *physical.Layer, src Peer, bp BatchPuller, plan batchPlan, cfg PropagateConfig) ([]physical.PullResult, uint64, error) {
	var results []physical.PullResult
	var err error
	if dp, ok := src.(DeltaPuller); ok && !cfg.DisableDelta {
		results, err = dp.PullBatchDelta(plan.reqs, local.PoolAddrs())
	} else {
		results, err = bp.PullBatch(plan.reqs)
	}
	cost := elapsedOf(src)
	if err == nil && len(results) != len(plan.reqs) {
		err = fmt.Errorf("pull batch: %d answers for %d requests", len(results), len(plan.reqs))
	}
	return results, cost, err
}

// conclusiveFromBackup reports whether a backup replica's answer stands on
// its own.  Data, a directory verdict, and a concurrent-history verdict are
// facts about versions the backup holds; "stale" and "not stored" may just
// mean the backup has not caught up, and must not drop the entry.
func conclusiveFromBackup(r *physical.PullResult) bool {
	switch r.Status {
	case physical.PullData, physical.PullIsDir, physical.PullConcurrent:
		return true
	default:
		return false
	}
}

// runOriginBatched issues one conditional pull for the whole batch — and,
// under the hedging config, a deterministic virtual-time race: the primary
// pull runs first; if its virtual cost exceeds HedgeAfter (or it failed in
// transit) a backup pull is issued to the next-healthiest replica holding
// the same versions, modeled as having started at tick HedgeAfter.  The
// source with the earlier virtual completion wins and its answers are
// applied; the loser's are discarded ("cancelled") — except that a backup's
// stale/not-stored verdicts never override the origin's answer, and when
// only the backup answered they defer the entry instead of dropping it.
func runOriginBatched(local *physical.Layer, peer Peer, bp BatchPuller, entries []physical.NewVersion, cfg PropagateConfig, res *originResult) {
	// Pick a backup before building the batch so delta indexing can account
	// for either source.
	primary, primaryBP := peer, bp
	var backup Peer
	var backupBP BatchPuller
	if cfg.HedgeAfter > 0 && cfg.FindHedge != nil {
		if b := cfg.FindHedge(entries[0].Origin); b != nil && !samePeer(b, peer) {
			if bbp, ok := b.(BatchPuller); ok {
				backup, backupBP = b, bbp
			}
		}
	}
	delta := !cfg.DisableDelta
	if _, ok := primary.(DeltaPuller); !ok {
		if _, ok := backup.(DeltaPuller); !ok || backup == nil {
			delta = false
		}
	}
	plan := buildBatch(local, entries, delta, res.outcomes)
	if len(plan.reqs) == 0 {
		return
	}
	res.pulled = true

	// Load shedding — the circuit-breaker half: a primary the health
	// tracker rates Slow is swapped for a faster alternate up front, so a
	// degrading peer loses traffic before it fails outright.
	if backup != nil && isSlow(primary) && !isSlow(backup) {
		primary, backup = backup, primary
		primaryBP, backupBP = backupBP, primaryBP
		res.shed = true
	}

	resP, costP, errP := doPull(local, primary, primaryBP, plan, cfg)
	if backup == nil || (errP == nil && costP <= cfg.HedgeAfter) {
		res.cost = costP
		res.src = primary
		if errP != nil {
			failBatch(plan, res.outcomes, errP)
			return
		}
		applyBatch(local, plan, resP, entries, res.outcomes)
		return
	}

	// Hedge: the backup pull starts, in virtual time, at tick HedgeAfter.
	res.hedged = true
	resB, costB, errB := doPull(local, backup, backupBP, plan, cfg)
	tB := cfg.HedgeAfter + costB
	switch {
	case errP == nil && errB == nil:
		if tB < costP {
			res.hedgeWon = true
			res.cost, res.src = tB, backup
			merged := make([]physical.PullResult, len(resP))
			for k := range resP {
				if conclusiveFromBackup(&resB[k]) {
					merged[k] = resB[k]
				} else {
					merged[k] = resP[k] // origin's verdict stands for stale/not-stored
				}
			}
			applyBatch(local, plan, merged, entries, res.outcomes)
			return
		}
		res.cost, res.src = costP, primary
		applyBatch(local, plan, resP, entries, res.outcomes)
	case errP == nil: // backup failed in transit; the primary answered
		res.cost, res.src = costP, primary
		applyBatch(local, plan, resP, entries, res.outcomes)
	case errB == nil: // only the backup answered
		res.hedgeWon = true
		res.cost, res.src = tB, backup
		guarded := make([]physical.PullResult, len(resB))
		for k := range resB {
			if conclusiveFromBackup(&resB[k]) {
				guarded[k] = resB[k]
			} else {
				guarded[k] = physical.PullResult{Status: physical.PullError, Err: hedgeInconclusiveError{}}
			}
		}
		applyBatch(local, plan, guarded, entries, res.outcomes)
	default: // both failed: the batch waited out both sources
		if tB > costP {
			res.cost = tB
		} else {
			res.cost = costP
		}
		res.src = primary
		failBatch(plan, res.outcomes, errP)
	}
}

// failBatch fails every entry that made it into the batch (each keeps its
// own backoff schedule).
func failBatch(plan batchPlan, outcomes []entryOutcome, err error) {
	for _, i := range plan.reqIdx {
		outcomes[i] = entryOutcome{kind: outFailed, err: err}
	}
}

// applyBatch maps the per-entry pull results onto outcomes, installing
// shipped versions through the single-file atomic commit.
func applyBatch(local *physical.Layer, plan batchPlan, results []physical.PullResult, entries []physical.NewVersion, outcomes []entryOutcome) {
	for k := range results {
		r := &results[k]
		i := plan.reqIdx[k]
		nv := entries[i]
		switch r.Status {
		case physical.PullData:
			// Install under the origin's manifest: a payload damaged in
			// flight (or served past a bypassed verification) is rejected as
			// a transient failure before it touches disk, and the entry
			// retries under backoff.  A delta answer reassembles from pool +
			// shipped blocks first; a missing block is transient (the pool
			// moved under us) and the entry retries with a fresh
			// advertisement.
			err := local.InstallPulled(nv.Dir, nv.File, r)
			switch {
			case err == nil:
				outcomes[i] = entryOutcome{kind: outInstalled}
			case errors.Is(err, physical.ErrNotStored):
				// The containing directory is not stored locally (yet);
				// subtree reconciliation will materialize it first.
				outcomes[i] = entryOutcome{kind: outSkipped}
			default:
				outcomes[i] = entryOutcome{kind: outFailed, err: err}
			}
		case physical.PullStale, physical.PullNotStored:
			// Stale news, or the origin no longer stores the file (the
			// tombstone will arrive through directory reconciliation).
			outcomes[i] = entryOutcome{kind: outDrop}
		case physical.PullConcurrent:
			outcomes[i] = entryOutcome{kind: outConflict, localVV: plan.locals[i].Clone(), remoteVV: r.RemoteVV.Clone()}
		case physical.PullIsDir:
			outcomes[i] = entryOutcome{kind: outIsDir}
		case physical.PullError:
			outcomes[i] = entryOutcome{kind: outFailed, err: r.Err}
		default:
			outcomes[i] = entryOutcome{kind: outFailed, err: fmt.Errorf("pull batch: invalid status %d", r.Status)}
		}
	}
}

// attemptSequential is the per-file protocol for peers without the batch
// op: a FileInfo to compare vectors, then a FileData when the remote
// dominates — the original two-round-trip pull.  cost accumulates the
// virtual latency of each remote call.
func attemptSequential(local *physical.Layer, peer Peer, nv physical.NewVersion, cost *uint64) entryOutcome {
	rinfo, err := peer.FileInfo(nv.Dir, nv.File)
	*cost += elapsedOf(peer)
	if err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			return entryOutcome{kind: outDrop}
		}
		return entryOutcome{kind: outFailed, err: err}
	}
	if rinfo.Aux.Type.IsDir() {
		return entryOutcome{kind: outIsDir}
	}
	linfo, err := local.FileInfo(nv.Dir, nv.File)
	if err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			return pullOutcome(local, peer, nv, cost)
		}
		return entryOutcome{kind: outFailed, err: err}
	}
	switch linfo.Aux.VV.Compare(rinfo.Aux.VV) {
	case vv.Dominated:
		return pullOutcome(local, peer, nv, cost)
	case vv.Concurrent:
		return entryOutcome{kind: outConflict, localVV: linfo.Aux.VV.Clone(), remoteVV: rinfo.Aux.VV.Clone()}
	default:
		return entryOutcome{kind: outDrop} // stale news
	}
}

// pullOutcome fetches and installs one file version via the per-file
// protocol, installing under the attributes that came WITH the data (the
// file may have advanced between FileInfo and FileData).
func pullOutcome(local *physical.Layer, peer Peer, nv physical.NewVersion, cost *uint64) entryOutcome {
	data, rst, err := peer.FileData(nv.Dir, nv.File)
	*cost += elapsedOf(peer)
	if err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			return entryOutcome{kind: outSkipped}
		}
		return entryOutcome{kind: outFailed, err: err}
	}
	if err := local.InstallFileVersion(nv.Dir, nv.File, rst.Aux.Type, data, rst.Aux.VV, rst.Aux.Nlink); err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			return entryOutcome{kind: outSkipped}
		}
		return entryOutcome{kind: outFailed, err: err}
	}
	return entryOutcome{kind: outInstalled}
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
