package recon

import (
	"errors"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
)

// Repair is the self-healing half of the integrity daemon: for every
// quarantined file version that is due, it re-pulls the file from peer
// replicas through the batched pull path and reinstalls a verified copy.
//
// A repair pull sends HasLocal=false — the local bytes are untrusted, so
// even a peer whose vector merely EQUALS the quarantined one must ship data
// (a conditional pull would answer "stale").  A shipped version is accepted
// only when its vector dominates-or-equals the quarantined vector (an older
// version must not silently roll the file back; it will arrive through
// normal reconciliation if it is genuinely the surviving history) and its
// payload matches the shipped manifest — InstallPulled verifies before
// anything touches disk, and a verified install lifts the quarantine.
//
// Failure handling mirrors update propagation: a peer that is unreachable
// or answers with a transient error leaves the entry queued under the
// policy's backoff.  Only a round in which EVERY peer replica was reached
// and gave a definitive refusal (no copy stored, or only a dominated
// version) is counted as unrepairable — and even then the entry stays
// queued, because optimistic replication says a healthy replica may yet
// reappear.
type RepairStats struct {
	Attempted int // due quarantined versions a repair was attempted for
	Repaired  int // versions healed this pass
	Deferred  int // versions re-queued under backoff
	GaveUp    int // rounds where every known peer definitively refused
}

// Add accumulates (aggregation across layers and hosts).
func (s *RepairStats) Add(t RepairStats) {
	s.Attempted += t.Attempted
	s.Repaired += t.Repaired
	s.Deferred += t.Deferred
	s.GaveUp += t.GaveUp
}

// Repair runs one repair pass over local's due quarantined versions.  The
// peers list names the volume's other replicas (self entries are skipped).
// Like Propagate, it advances the layer's virtual daemon clock by one tick;
// backoff schedules are measured on it.
func Repair(local *physical.Layer, find PeerFinder, peers []ids.ReplicaID, policy retry.Policy) RepairStats {
	if policy.MaxAttempts == 0 && policy.BaseBackoff == 0 {
		policy = retry.Default()
	}
	now := local.AdvanceDaemonTick()
	var stats RepairStats
	for _, q := range local.RepairDue(now) {
		stats.Attempted++
		repaired, definitive := repairOne(local, find, peers, q)
		switch {
		case repaired:
			stats.Repaired++
		case definitive:
			// Every peer answered, none can help: note it once, keep waiting.
			local.NoteUnrepairable(q.File)
			local.DeferRepair(q.File, now+policy.Backoff(q.Attempts+1, repairKey(q)))
			stats.GaveUp++
			stats.Deferred++
		default:
			local.DeferRepair(q.File, now+policy.Backoff(q.Attempts+1, repairKey(q)))
			stats.Deferred++
		}
	}
	return stats
}

// repairOne tries each peer in order until one supplies a verified
// dominating copy.  definitive reports that every peer replica was reached
// and refused for a permanent reason (nothing transient stands between this
// replica and the conclusion "no peer can help right now").
func repairOne(local *physical.Layer, find PeerFinder, peers []ids.ReplicaID, q physical.QuarEntry) (repaired, definitive bool) {
	definitive = true
	for _, rid := range peers {
		if rid == local.Replica() {
			continue
		}
		peer := find(rid)
		if peer == nil {
			definitive = false // unreachable or health-gated: maybe later
			continue
		}
		res, err := repairPull(local, peer, q)
		if err != nil {
			definitive = false
			continue
		}
		switch res.Status {
		case physical.PullData:
			if !res.Aux.VV.DominatesOrEqual(q.VV) {
				continue // an older version cannot vouch for this one
			}
			if err := local.InstallPulled(q.Dir, q.File, &res); err != nil {
				definitive = false // damaged in flight, or local trouble: retry
				continue
			}
			return true, false
		case physical.PullNotStored, physical.PullIsDir:
			// Definitive: this peer cannot supply the file's bytes.
		default:
			// PullError (the peer's own copy may be quarantined), or an
			// unexpected status: not a verdict.
			definitive = false
		}
	}
	return false, definitive
}

// repairPull fetches one unconditional copy of q's file from peer, using the
// delta pull path when the peer supports it (the advertisement names only
// pool blocks — which are re-verified against their addresses on every read,
// so a quarantined file's untrusted bytes can never slip into the repair),
// the batched path otherwise, and the per-file protocol as the last resort
// (a plain FileData ships no manifest; the install then seals from the
// received bytes, which the serving side verified on read).
func repairPull(local *physical.Layer, peer Peer, q physical.QuarEntry) (physical.PullResult, error) {
	req := physical.PullRequest{Dir: q.Dir, File: q.File} // HasLocal=false: ship unconditionally
	if dp, ok := peer.(DeltaPuller); ok {
		results, err := dp.PullBatchDelta([]physical.PullRequest{req}, local.PoolAddrs())
		if err != nil {
			return physical.PullResult{}, err
		}
		if len(results) != 1 {
			return physical.PullResult{Status: physical.PullError}, nil
		}
		return results[0], nil
	}
	if bp, ok := peer.(BatchPuller); ok {
		results, err := bp.PullBatch([]physical.PullRequest{req})
		if err != nil {
			return physical.PullResult{}, err
		}
		if len(results) != 1 {
			return physical.PullResult{Status: physical.PullError}, nil
		}
		return results[0], nil
	}
	data, st, err := peer.FileData(q.Dir, q.File)
	if errors.Is(err, physical.ErrNotStored) {
		return physical.PullResult{Status: physical.PullNotStored}, nil
	}
	if err != nil {
		return physical.PullResult{}, err
	}
	if st.Aux.Type.IsDir() {
		return physical.PullResult{Status: physical.PullIsDir, Aux: st.Aux}, nil
	}
	return physical.PullResult{Status: physical.PullData, Data: data, Aux: st.Aux, Size: st.Size}, nil
}

// repairKey seeds the backoff jitter (cf. propagationKey).
func repairKey(q physical.QuarEntry) uint64 {
	return q.File.Seq ^ uint64(q.File.Issuer)<<32 ^ 0xC0FFEE
}
