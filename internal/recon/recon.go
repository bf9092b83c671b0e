// Package recon implements the Ficus reconciliation protocols (paper §3.2,
// §3.3): update propagation for regular files and the directory and subtree
// reconciliation algorithms.
//
// "A reconciliation algorithm examines the state of two replicas,
// determines which operations have been performed on each, selects a set of
// operations to perform on the local replica which reflect previously
// unseen activity at the remote replica, and then applies those operations
// to the local replica."
//
// Reconciliation is one-way pull: the local replica updates itself from a
// remote peer and never writes to it.  Running the pull on both sides (or
// around a gossip cycle) converges all replicas.  For regular files the
// version vectors decide: a dominating remote version is installed through
// the physical layer's single-file atomic commit; concurrent versions are a
// conflict, reported to the owner and left untouched.  For directories the
// physical layer's entry merge replays insertions and deletions; conflicts
// there are repaired automatically.
package recon

import (
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/physical"
)

// Peer is the read-only view of a remote volume replica that reconciliation
// pulls from.  *physical.Layer satisfies it directly (co-resident
// reconciliation); internal/repl provides the RPC-backed implementation.
type Peer interface {
	// Replica identifies the peer's volume replica.
	Replica() ids.ReplicaID
	// DirEntries returns a directory's entries and version vector.
	DirEntries(dirPath []ids.FileID) (physical.DirState, error)
	// PullBatchDelta is the conditional pull, the one way a file version is
	// obtained from a peer: each request carries the puller's vector and is
	// answered with exactly one physical.PullStatus, shipping the version
	// only when it dominates.  have advertises block addresses the puller
	// holds; when it is non-empty, shipped versions travel as (manifest,
	// missing blocks) instead of whole.  Failures are per entry; an error
	// means the exchange itself failed.
	PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error)
}

var _ Peer = (*physical.Layer)(nil)

// BatchPuller and DeltaPuller were optional capabilities before the pull
// became a required method of Peer.  The frozen bench/span.go names them,
// which is the only reason they exist; the next benchmark PR deletes them.
//
// Deprecated: use Peer.
type (
	BatchPuller = Peer
	DeltaPuller = Peer
)

// Stats summarizes one reconciliation or propagation pass.
type Stats struct {
	DirsVisited    int // directories compared
	DirsCreated    int // local containers materialized for remote dirs
	EntriesAdopted int // entries inserted by the merge
	EntriesDeleted int // local entries tombstoned by remote deletes
	FilesPulled    int // file versions installed via atomic commit
	Conflicts      int // concurrent file updates detected and reported
	NameRepairs    int // same-name entry pairs coexisting after auto-repair
	Skipped        int // subtrees skipped (not stored on one side)
	Deferred       int // propagation entries postponed (backoff or origin unavailable)
	Failures       int // failed this pass: per-entry pulls, or (Rescan) passes that reached their peer

	// Slow-peer tolerance (propagation only).  All fields are scalars on
	// purpose: Stats must stay comparable for the determinism tests.
	Hedges         int    // backup pulls issued after the hedging threshold
	HedgeWins      int    // hedged pulls whose backup answered first
	SlowSheds      int    // pulls redirected away from a Slow primary up front
	BudgetDeferred int    // due entries left for the next pass by the tick budget
	PassTicks      uint64 // virtual ticks of the pass's pulls, summed
}

// Add accumulates.
func (s *Stats) Add(t Stats) {
	s.DirsVisited += t.DirsVisited
	s.DirsCreated += t.DirsCreated
	s.EntriesAdopted += t.EntriesAdopted
	s.EntriesDeleted += t.EntriesDeleted
	s.FilesPulled += t.FilesPulled
	s.Conflicts += t.Conflicts
	s.NameRepairs += t.NameRepairs
	s.Skipped += t.Skipped
	s.Deferred += t.Deferred
	s.Failures += t.Failures
	s.Hedges += t.Hedges
	s.HedgeWins += t.HedgeWins
	s.SlowSheds += t.SlowSheds
	s.BudgetDeferred += t.BudgetDeferred
	s.PassTicks += t.PassTicks
}

// Changed reports whether the pass modified the local replica.
func (s Stats) Changed() bool {
	return s.DirsCreated > 0 || s.EntriesAdopted > 0 || s.EntriesDeleted > 0 || s.FilesPulled > 0
}

// String renders the stats compactly.
func (s Stats) String() string {
	out := fmt.Sprintf("dirs=%d created=%d adopted=%d deleted=%d pulled=%d conflicts=%d repairs=%d skipped=%d deferred=%d failures=%d",
		s.DirsVisited, s.DirsCreated, s.EntriesAdopted, s.EntriesDeleted, s.FilesPulled, s.Conflicts, s.NameRepairs, s.Skipped, s.Deferred, s.Failures)
	if s.Hedges > 0 || s.SlowSheds > 0 || s.BudgetDeferred > 0 || s.PassTicks > 0 {
		out += fmt.Sprintf(" hedges=%d hedgewins=%d sheds=%d budgetdeferred=%d passticks=%d",
			s.Hedges, s.HedgeWins, s.SlowSheds, s.BudgetDeferred, s.PassTicks)
	}
	return out
}

// ReconcileVolume reconciles the local replica's entire tree against the
// remote peer, starting at the volume root ("executed periodically to
// traverse an entire subgraph, not just a single node", §3.3).
func ReconcileVolume(local *physical.Layer, remote Peer) (Stats, error) {
	return reconcile(local, remote, physical.RootPath(), wholeSubtree)
}

// scope is how far below the directory it merges a reconciliation goes.
type scope byte

const (
	// wholeSubtree compares every file and visits every directory below:
	// the periodic traversal "of an entire subgraph" (§3.3), and the backstop
	// for every notice that was lost.
	wholeSubtree scope = iota
	// notice is what a directory's new-version notice costs (§3.2): the
	// merge, the files it named that this replica stores no copy of, and any
	// child directory this replica does not store yet, reconciled whole.  A
	// stored file or child directory that changed has its own notice.
	notice
)

// reconcile merges the directory at dirPath from remote and goes below it as
// far as sc says.
func reconcile(local *physical.Layer, remote Peer, dirPath []ids.FileID, sc scope) (Stats, error) {
	var stats Stats
	var pullErr error
	err := reconcileDir(local, remote, dirPath, sc, &stats, &pullErr)
	if pullErr != nil {
		err = pullErr
	}
	return stats, err
}

// reconcileDir merges one directory, pulls its files and descends.  A failed
// file pull is kept in *pullErr, the first one only, and the walk goes on: it
// must not keep the directories below out of reconciliation.
func reconcileDir(local *physical.Layer, remote Peer, dirPath []ids.FileID, sc scope, stats *Stats, pullErr *error) error {
	rstate, err := remote.DirEntries(dirPath)
	if err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			stats.Skipped++
			return nil // the peer stores nothing here; nothing to learn
		}
		return err
	}
	stats.DirsVisited++
	res, err := local.ApplyDirMerge(dirPath, rstate)
	if err != nil {
		if errors.Is(err, physical.ErrNotStored) {
			// The local replica does not store this directory; nothing to
			// merge into (storage of non-root directories is optional,
			// §4.1).
			stats.Skipped++
			return nil
		}
		return err
	}
	stats.EntriesAdopted += res.Inserted
	stats.EntriesDeleted += res.Deleted
	stats.NameRepairs = max(stats.NameRepairs, res.NameConfls)

	lstate, err := local.DirEntries(dirPath)
	if err != nil {
		return err
	}
	// Under a notice, a file this replica stores is left to its own notice.
	var stored map[ids.FileID]bool
	if sc == notice {
		if stored, err = local.StoredFiles(dirPath); err != nil {
			return err
		}
	}
	// The directory's files are compared and pulled with one conditional
	// pull, before descending; none to ask about, no pull.
	var files []pullItem
	for _, e := range lstate.Entries {
		if e.Live() && !e.Kind.IsDir() && !stored[e.Child] {
			files = append(files, pullItem{dir: dirPath, file: e.Child})
		}
	}
	if err := reconcileFiles(local, remote, files, stats); err != nil && *pullErr == nil {
		*pullErr = err
	}
	for _, e := range lstate.Entries {
		if !e.Live() || !e.Kind.IsDir() {
			continue
		}
		childPath := append(append([]ids.FileID(nil), dirPath...), e.Child)
		if local.HasDir(childPath) {
			if sc == notice {
				continue // a change below it has its own notice
			}
		} else {
			// Materialize local storage for a directory learned from
			// the peer, copying its kind/graft target.
			raux, err := remote.DirEntries(childPath)
			if err != nil {
				if errors.Is(err, physical.ErrNotStored) {
					stats.Skipped++
					continue
				}
				return err
			}
			if err := local.EnsureDirStored(dirPath, e.Child, raux.Aux); err != nil {
				return err
			}
			stats.DirsCreated++
		}
		if err := reconcileDir(local, remote, childPath, wholeSubtree, stats, pullErr); err != nil {
			return err
		}
	}
	return nil
}

// reconcileFiles compares one directory's file replicas with the remote's by
// version vector, in one pull with no advertisement (versions ship whole),
// installing those the remote dominates.  Concurrent versions are a conflict:
// reported to the owner, data untouched (the owner resolves).  Every answer
// is applied, and the first failure is returned.
func reconcileFiles(local *physical.Layer, remote Peer, files []pullItem, stats *Stats) error {
	var first error
	for i, out := range pullAndApply(local, remote, files, false) {
		switch out.kind {
		case outInstalled:
			stats.FilesPulled++
		case outStale: // the local copy is as new: nothing to learn
		case outConflict:
			stats.Conflicts++
			reportConflict(local, files[i].dir, files[i].file, out, remote, "reconciliation")
		case outFailed:
			if first == nil {
				first = out.err
			}
		default: // not stored on one side (or not a file there): nothing to learn
			stats.Skipped++
		}
	}
	return first
}
