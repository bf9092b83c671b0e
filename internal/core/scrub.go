package core

import (
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/vnode"
)

// The background scrubber (integrity daemon): sweeps every local volume
// replica verifying stored file data against its sealed block addresses and
// quarantines versions that fail.  The heal is no daemon of its own: every
// pull of a quarantined copy asks its peer unconditionally and installs a
// verified copy, so the scrubber follows a sweep that leaves damage behind
// with the reconciliation pass.  It runs exactly like the other daemons —
// driven by explicit passes on the virtual clock, a no-op while the host is
// down — so simulations stay deterministic.

// ScrubOnce runs one integrity pass over every local volume replica: a full
// verification sweep (detect + reseal + quarantine), then, for a replica
// left holding a quarantined copy, the reconciliation pass ReconcileOnce
// runs, whose pulls heal it from peer replicas.  It returns those passes'
// stats (a healed version counts as FilesPulled); what the sweeps did is the
// difference of IntegrityStats taken around the call.  A down host's daemons
// do not run: the pass is a no-op.
func (h *Host) ScrubOnce() (recon.Stats, error) {
	if h.Down() {
		return recon.Stats{}, nil
	}
	h.advanceTick()
	var total recon.Stats
	for _, layer := range h.LocalReplicas() {
		if err := layer.ScrubPass(); err != nil {
			return total, err
		}
		if layer.IntegrityStats().Quarantined > 0 {
			total.Add(h.reconcileReplica(layer))
		}
	}
	return total, nil
}

// IntegrityStats aggregates the integrity counters of every local volume
// replica.
func (h *Host) IntegrityStats() physical.IntegrityStats {
	var total physical.IntegrityStats
	for _, layer := range h.LocalReplicas() {
		total.Add(layer.IntegrityStats())
	}
	return total
}

// BlockStats aggregates the delta-propagation counters of every local volume
// replica (blocks shipped to pullers, blocks reused by installs).
func (h *Host) BlockStats() physical.BlockStats {
	var total physical.BlockStats
	for _, layer := range h.LocalReplicas() {
		total.Add(layer.BlockStats())
	}
	return total
}

// CorruptFile injects silent at-rest bit rot into the local replica's copy
// of the file at slash path within vol, flipping one bit of the stored
// data byte at off without touching the version vector or the seal in the
// copy's aux — exactly the damage profile the scrubber exists to catch.  Test
// and experiment instrumentation.
func (h *Host) CorruptFile(vol ids.VolumeHandle, path string, off uint64) error {
	layer := h.LocalReplica(vol)
	if layer == nil {
		return ErrNoLocalReplica
	}
	root, err := layer.Root()
	if err != nil {
		return err
	}
	v, err := vnode.Walk(root, path)
	if err != nil {
		return err
	}
	kind, dirPath, fid, err := physical.ParseHandle(v.Handle())
	if err != nil {
		return err
	}
	if kind.IsDir() {
		return vnode.EISDIR
	}
	return layer.CorruptData(dirPath, fid, off)
}
