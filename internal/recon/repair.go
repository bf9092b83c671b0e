package recon

import (
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/retry"
)

// Repair is the self-healing half of the integrity daemon: for every
// quarantined file version that is due, it re-pulls the file from peer
// replicas through pullAndApply and reinstalls a verified copy.
//
// A repair pull is forced (HasLocal=false) — the local bytes are untrusted,
// so even a peer whose vector merely EQUALS the quarantined one must ship
// data (a conditional pull would answer "stale").  A shipped version is
// accepted only when its vector dominates-or-equals the local one and its
// payload matches the shipped manifest — InstallPulled verifies before
// anything touches disk, and a verified install lifts the quarantine.  The
// pull advertises nothing: the only local version it could be a delta
// against is the quarantined one, which is never a base, so the answer is
// the whole file.
//
// Failure handling mirrors update propagation: a peer that is unreachable
// or answers with a transient error leaves the entry queued under the
// policy's backoff.  Only a round in which EVERY peer replica was reached
// and gave a definitive refusal (no copy stored, or only a dominated
// version) is counted as GaveUp — and even then the entry stays queued,
// because optimistic replication says a healthy replica may yet reappear.
//
// In the returned Stats a healed version counts as FilesPulled and a
// re-queued one as Deferred, so every due version is one or the other.  The
// peers list names the volume's other replicas (self entries are skipped).
// Like Propagate, Repair advances the layer's virtual daemon clock by one
// tick; backoff schedules are measured on it.
func Repair(local *physical.Layer, find PeerFinder, peers []ids.ReplicaID, policy retry.Policy) Stats {
	if policy.MaxAttempts == 0 && policy.BaseBackoff == 0 {
		policy = retry.Default()
	}
	now := local.AdvanceDaemonTick()
	var stats Stats
	for _, q := range local.RepairDue(now) {
		repaired, definitive := repairOne(local, find, peers, q)
		switch {
		case repaired:
			stats.FilesPulled++
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
		out := pullAndApply(local, peer, []pullItem{{dir: q.Dir, file: q.File, force: true}}, false)[0]
		switch out.kind {
		case outInstalled:
			return true, false
		case outStale, outNotStored, outIsDir:
			// Definitive: this peer holds only an older version, or cannot
			// supply the file's bytes at all.
		default:
			// The peer was unreachable or answered an error (its own copy
			// may be quarantined), the payload was damaged in flight, or
			// local trouble: not a verdict.
			definitive = false
		}
	}
	return false, definitive
}

// repairKey seeds the backoff jitter (cf. propagationKey).
func repairKey(q physical.QuarEntry) uint64 {
	return q.File.Seq ^ uint64(q.File.Issuer)<<32 ^ 0xC0FFEE
}
