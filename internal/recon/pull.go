package recon

import (
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vv"
)

// outcomeKind classifies what one pulled entry came to.
type outcomeKind byte

const (
	outFailed    outcomeKind = iota // attempt failed; err explains
	outInstalled                    // version installed
	outStale                        // the local version dominates or equals: nothing to learn
	outNotStored                    // the remote stores no copy
	outSkipped                      // the local replica does not store the containing directory
	outConflict                     // concurrent histories; report to the owner
	outIsDir                        // directory: reconcile the subtree
)

// pullItem names one file version to obtain from a peer.
type pullItem struct {
	dir  []ids.FileID
	file ids.FileID
}

// entryOutcome is what one pullItem came to.
type entryOutcome struct {
	kind     outcomeKind
	err      error     // outFailed
	localVV  vv.Vector // the local vector the item was compared under (empty: no local copy)
	remoteVV vv.Vector // outConflict
}

// pullAndApply is the one way a replica obtains file versions from a peer;
// update propagation, directory reconciliation and the restart rescan all
// come through here.  It builds one conditional pull from the local side of
// each item (one physical.PullRequestFor each), issues it to src, and applies
// each answer: a shipped version is installed through the single-file atomic
// commit, every other answer is classified for the caller, which owns the
// bookkeeping (stats, conflict log, daemon queues).  Outcomes are positional.
//
// A quarantined local copy is also the repair: its bytes are untrusted, so
// its request is unconditional and even a peer holding the very same
// version ships it.  applyPull then compares the shipped vector with the
// local one as the serving side would have, and the install of an equal or
// newer version clears the quarantine.
//
// With advertise set the versions ship as deltas against the ones they
// replace: the sealed manifest of each item's local copy joins a per-pull
// base as its vector is read (reads only), the base's addresses are the
// pull's advertisement, and installs read unshipped blocks back out of the
// base files.  A local copy that cannot vouch for its bytes (quarantined,
// stale seal) adds nothing and is replaced by whole blocks; the install
// checks every block it reuses against its holder's seal regardless.
//
// Each answer is released once applied: a co-resident source (a
// *physical.Layer) lends the bytes it read from wire's pool, and they go back
// before the next entry's install takes a buffer of its own.
func pullAndApply(local *physical.Layer, src Peer, items []pullItem, advertise bool) []entryOutcome {
	outcomes := make([]entryOutcome, len(items))
	var base physical.DeltaBase
	if advertise {
		base = physical.DeltaBase{}
	}
	reqs := make([]physical.PullRequest, 0, len(items))
	reqIdx := make([]int, 0, len(items))
	for i, it := range items {
		req, localVV, err := local.PullRequestFor(it.dir, it.file, base)
		if err != nil {
			outcomes[i].err = err
			continue
		}
		outcomes[i].localVV = localVV
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}
	if len(reqs) == 0 {
		return outcomes
	}
	results, err := pullFrom(src, reqs, base.Have())
	for k, i := range reqIdx {
		if err != nil {
			outcomes[i].err = err // each entry keeps its own backoff schedule
			continue
		}
		applyPull(local, base, &items[i], &results[k], &outcomes[i])
		results[k].Release()
	}
	return outcomes
}

// pullFrom issues one conditional pull and checks its shape.
func pullFrom(src Peer, reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	results, err := src.PullBatchDelta(reqs, have)
	if err == nil && len(results) != len(reqs) {
		err = fmt.Errorf("pull: %d answers for %d requests", len(results), len(reqs))
	}
	return results, err
}

// applyPull maps one pull answer onto its outcome, installing a shipped
// version.
func applyPull(local *physical.Layer, base physical.DeltaBase, it *pullItem, r *physical.PullResult, out *entryOutcome) {
	switch r.Status {
	case physical.PullData:
		// Only an unconditional pull of a quarantined copy can be answered
		// with a version that does not dominate: an older one must not roll
		// the file back, and concurrent histories are the owner's conflict.
		switch out.localVV.Compare(r.Aux.VV) {
		case vv.Dominates:
			out.kind = outStale
			return
		case vv.Concurrent:
			out.kind, out.remoteVV = outConflict, r.Aux.VV
			return
		}
		// Install under the origin's manifest: a payload damaged in flight
		// (or served past a bypassed verification) is rejected before it
		// touches disk.  The install reassembles the version from the
		// shipped blocks and the base first; a missing block is transient (a
		// base file moved under us) and the entry retries with a fresh
		// advertisement.
		err := local.InstallPulled(it.dir, it.file, r, base)
		switch {
		case err == nil:
			out.kind = outInstalled
		case errors.Is(err, physical.ErrNotStored):
			// The containing directory is not stored locally (yet); subtree
			// reconciliation will materialize it first.
			out.kind = outSkipped
		default:
			out.err = err
		}
	case physical.PullStale:
		out.kind = outStale
	case physical.PullNotStored:
		out.kind = outNotStored
	case physical.PullConcurrent:
		out.kind, out.remoteVV = outConflict, r.RemoteVV
	case physical.PullIsDir:
		out.kind = outIsDir
	case physical.PullError:
		out.err = r.Err
	default:
		out.err = fmt.Errorf("pull: invalid status %d", r.Status)
	}
}

// reportConflict logs concurrent histories of one file for its owner.
func reportConflict(local *physical.Layer, dir []ids.FileID, file ids.FileID, out entryOutcome, remote Peer, during string) {
	local.ReportConflict(physical.Conflict{
		File:     file,
		Dir:      append([]ids.FileID(nil), dir...),
		LocalVV:  out.localVV,
		RemoteVV: out.remoteVV,
		Remote:   remote.Replica(),
		Note:     "concurrent update detected during " + during,
	})
}
