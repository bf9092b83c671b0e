package recon

import (
	"repro/internal/ids"
	"repro/internal/physical"
)

// Rescan runs one reconciliation pass of local against every peer replica
// in peers (in the given order, self entries skipped), tolerating per-peer
// failures: reconciliation is the anti-entropy safety net, so an
// unreachable or mid-pass-failing peer is normal life, not an error.
//
// each is invoked once per non-self peer with whether the peer was reachable
// at all (the finder returned it) and, if so, how its pass ended; the
// anti-entropy scheduler records from it which peers completed a clean pass.
//
// It returns the accumulated stats, in which each pass that reached its peer
// and then failed counts one in Failures, and how many peers completed a full
// pass cleanly.  The caller uses the clean count to decide whether an
// obligation to rescan — e.g. the sweep a restarted host owes for update
// notifications that arrived while it was down (§3.3: reconciliation
// covers lost notifications) — has been met.
func Rescan(local *physical.Layer, find PeerFinder, peers []ids.ReplicaID, each func(rid ids.ReplicaID, reached bool, err error)) (Stats, int) {
	var total Stats
	clean := 0
	for _, rid := range peers {
		if rid == local.Replica() {
			continue
		}
		peer := find(rid)
		if peer == nil {
			each(rid, false, nil)
			continue
		}
		stats, err := ReconcileVolume(local, peer)
		total.Add(stats)
		if err == nil {
			clean++
		} else {
			total.Failures++
		}
		each(rid, true, err)
	}
	return total, clean
}
