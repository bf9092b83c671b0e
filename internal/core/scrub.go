package core

import (
	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/vnode"
)

// The background scrubber (integrity daemon): sweeps every local volume
// replica verifying stored file data against its sealed block addresses,
// quarantines versions that fail, and heals them by re-pulling a verified
// copy from a peer replica.  It runs exactly like the propagation daemon —
// driven by explicit passes on the virtual clock, health-gated toward
// peers, a no-op while the host is down — so simulations stay
// deterministic.

// ScrubOnce runs one integrity pass over every local volume replica: a
// full verification sweep (detect + reseal + quarantine), then a repair pass
// that re-pulls due quarantined versions from peer replicas.  It returns the
// repair passes' stats; what the sweeps did is the difference of
// IntegrityStats taken around the call.  A down host's daemons do not run:
// the pass is a no-op.
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
		peers := h.replicaIDs(layer.Volume())
		total.Add(recon.Repair(layer, h.peerFinder(layer, true), peers, retry.Default()))
	}
	return total, nil
}

// replicaIDs lists the known replicas of vol in deterministic order.
func (h *Host) replicaIDs(vol ids.VolumeHandle) []ids.ReplicaID {
	locs := h.Locations(vol)
	out := make([]ids.ReplicaID, 0, len(locs))
	for _, loc := range locs {
		out = append(out, loc.ID)
	}
	return out
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
