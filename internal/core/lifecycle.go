package core

// Crash–restart lifecycle.  The paper's availability argument (§1, §3)
// assumes replicas survive host failures and catch up afterwards; this file
// is that failure model.  Crash kills the "kernel": every service endpoint
// disappears and all in-memory state — mounts, grafts, peer health, the
// volume layers — is lost, while the disks survive.  Restart remounts each
// volume from its device (UFS recovery first, then physical-layer recovery)
// and re-exports it, and flags each remounted volume for one anti-entropy
// rescan: the new-version cache died with the kernel, notifications that
// arrived while the host was down are gone forever, and the paper's answer
// is that "reconciliation covers lost notifications".

import (
	"fmt"
	"sort"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
)

// Crash tears the host down as a power failure would: RPC and notification
// handlers stop answering, mounted layers and the graft table are lost, and
// each replica's device is put into the faulted state so stale file-system
// handles from before the crash cannot touch the platter.  The devices
// themselves (and their contents) survive for Restart.  Idempotent.
func (h *Host) Crash() {
	h.mu.Lock()
	if h.down {
		h.mu.Unlock()
		return
	}
	h.down = true
	reps := h.replicas
	h.replicas = make(map[ids.VolumeReplicaHandle]*localReplica)
	h.grafts = make(map[ids.VolumeHandle]*graftEntry)
	for vr, lr := range reps {
		h.crashed[vr] = &crashedReplica{dev: lr.dev, opts: lr.opts}
	}
	h.mu.Unlock()

	// Service teardown outside h.mu: the network host keeps its own locks.
	for _, vr := range sortedHandles(reps) {
		h.replSrv.Unregister(vr)
		h.snHost.RemoveRPC(nfsService(vr))
		reps[vr].dev.Fault()
	}
	h.snHost.SetDown(true)
	// In-flight peer-health knowledge dies with the kernel, as do the
	// gossip seen-rumor cache and the anti-entropy scheduler's recency
	// tables (the post-restart rescan covers what was forgotten).
	h.health.Reset()
	h.sched.Reset()
	h.mu.Lock()
	h.gossipSeen = make(map[rumorKey]struct{})
	h.gossipFIFO = nil
	h.mu.Unlock()
}

// Restart reboots a crashed host: every volume replica is remounted from
// its surviving device — UFS crash recovery runs under Mount, then the
// physical layer is rebuilt from on-disk state with an empty new-version
// cache — and its replication services are re-exported.
// Each restored volume is flagged for an anti-entropy rescan, performed by
// the next daemon pass.  A replica that fails to remount stays crashed and
// the host stays down; the error reports why.
func (h *Host) Restart() error {
	h.mu.Lock()
	if !h.down {
		h.mu.Unlock()
		return nil
	}
	crashed := h.crashed
	h.crashed = make(map[ids.VolumeReplicaHandle]*crashedReplica)
	h.mu.Unlock()

	h.snHost.SetDown(false)
	for _, vr := range sortedHandles(crashed) {
		cr := crashed[vr]
		lr, err := remount(cr)
		if err != nil || lr.layer.VolumeReplica() != vr {
			if err == nil {
				err = fmt.Errorf("core: device for %s holds replica %s", vr, lr.layer.VolumeReplica())
			}
			// Put every unrestored replica back and stay down.
			h.mu.Lock()
			for _, bad := range sortedHandles(crashed) {
				if _, ok := h.replicas[bad]; !ok {
					h.crashed[bad] = crashed[bad]
				}
			}
			h.mu.Unlock()
			h.snHost.SetDown(true)
			return fmt.Errorf("core: restart %s: %w", vr, err)
		}
		h.replSrv.Register(lr.layer)
		nfs.ServeOn(h.snHost, nfsService(vr), lr.layer, lr.layer)
		h.mu.Lock()
		h.replicas[vr] = lr
		h.rescan[vr.Vol] = true
		h.mu.Unlock()
	}
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
	return nil
}

// remount brings one crashed replica back from its device.
func remount(cr *crashedReplica) (*localReplica, error) {
	cr.dev.ClearFault()
	fs, err := ufs.Mount(cr.dev, nil)
	if err != nil {
		return nil, err
	}
	layer, err := physical.Open(ufsvn.New(fs))
	if err != nil {
		return nil, err
	}
	return &localReplica{layer: layer, dev: cr.dev, fs: fs, opts: cr.opts}, nil
}

// Down reports whether the host is currently crashed.
func (h *Host) Down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.down
}

// RescanPending reports how many volumes still owe a post-restart
// anti-entropy rescan.
func (h *Host) RescanPending() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.rescan)
}

// Devices lists the disks behind every local replica, including replicas of
// a currently crashed host, in deterministic order (for fault injection and
// I/O accounting).
func (h *Host) Devices() []*disk.Device {
	h.mu.Lock()
	defer h.mu.Unlock()
	byVR := make(map[ids.VolumeReplicaHandle]*disk.Device, len(h.replicas)+len(h.crashed))
	for vr, lr := range h.replicas {
		byVR[vr] = lr.dev
	}
	for vr, cr := range h.crashed {
		byVR[vr] = cr.dev
	}
	out := make([]*disk.Device, 0, len(byVR))
	for _, vr := range sortedHandles(byVR) {
		out = append(out, byVR[vr])
	}
	return out
}

// schedPeers turns vol's replica set, less the local replica, into
// anti-entropy scheduler input: each peer's replica id and the health
// tracker's verdict (a co-resident replica is healthy, a stale location
// dead).  The set comes with them; its tick is the pass's.
func (h *Host) schedPeers(vol ids.VolumeHandle, local *physical.Layer) (replicaSet, []recon.SchedPeer) {
	s := h.replicaSet(vol)
	peers := make([]recon.SchedPeer, 0, len(s.locs))
	for i, l := range s.locs {
		if local != nil && l.ID == local.Replica() {
			continue
		}
		st := retry.Healthy
		if !s.reachable(i) {
			st = retry.Dead
		} else if s.layers[i] == nil {
			st = h.health.State(string(l.Addr))
		}
		peers = append(peers, recon.SchedPeer{Replica: l.ID, Health: st})
	}
	return s, peers
}

// reconcileReplica reconciles one local replica against remote replicas of
// its volume in the anti-entropy scheduler's priority order — stalest and
// least-healthy peers first, capped at the configured ReconPeers budget
// (0 = every peer) — and discharges the volume's rescan obligation (if any)
// once it is met: at least one remote peer completed a clean pass, or no
// remote peer is known at all.  Every visit is recorded as an attempt (so
// budgeted passes rotate through all peers — no starvation) and every clean
// pass as a sync.
func (h *Host) reconcileReplica(layer *physical.Layer) recon.Stats {
	vol := layer.Volume()
	s, peers := h.schedPeers(vol, layer)
	now := s.tick
	remotes := len(peers)
	order := h.sched.Order(vol, peers, now)
	if b := h.GossipSettings().ReconPeers; b > 0 && b < len(order) {
		order = order[:b]
	}
	rids := make([]ids.ReplicaID, len(order))
	for i, p := range order {
		rids[i] = p.Replica
		h.sched.NoteAttempt(vol, p.Replica, now)
	}
	stats, clean := recon.Rescan(layer, h.peerFinder(layer, false), rids,
		func(rid ids.ReplicaID, reached bool, err error) {
			if reached && err == nil {
				h.sched.NoteSync(vol, rid, now)
			}
		})
	if clean > 0 || remotes == 0 {
		h.mu.Lock()
		delete(h.rescan, vol)
		h.mu.Unlock()
	}
	return stats
}

// recoveryRescan runs the reconcile pass each freshly restarted volume owes.
// The obligation stands until a pass reaches at least one remote peer: under
// partitions or RPC faults the flag persists and the next daemon pass tries
// again.
func (h *Host) recoveryRescan() recon.Stats {
	h.mu.Lock()
	if len(h.rescan) == 0 {
		h.mu.Unlock()
		return recon.Stats{}
	}
	flagged := make(map[ids.VolumeHandle]bool, len(h.rescan))
	for vol := range h.rescan {
		flagged[vol] = true
	}
	h.mu.Unlock()
	var total recon.Stats
	for _, layer := range h.LocalReplicas() {
		if !flagged[layer.Volume()] {
			continue
		}
		total.Add(h.reconcileReplica(layer))
	}
	return total
}

// sortedHandles orders the keys of a per-replica map deterministically.
func sortedHandles[V any](m map[ids.VolumeReplicaHandle]V) []ids.VolumeReplicaHandle {
	out := make([]ids.VolumeReplicaHandle, 0, len(m))
	for vr := range m {
		out = append(out, vr)
	}
	sort.Slice(out, func(i, j int) bool { return vrhLess(out[i], out[j]) })
	return out
}
