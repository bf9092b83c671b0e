// Package core assembles a Ficus host: the composition glue that stands in
// for the SunOS kernel configuration of the paper.  A Host owns
//
//   - local volume replicas (each a UFS on its own simulated disk with a
//     physical layer on top),
//   - the NFS servers exporting each replica to remote logical layers
//     (Fig. 2),
//   - the repl server answering reconciliation pulls,
//   - the datagram handler feeding update notifications into the local
//     new-version caches (§3.2),
//   - the volume location table and graft table used by autografting (§4),
//   - the periodic daemons, run here as explicit steps (PropagateOnce,
//     ReconcileOnce) so experiments are deterministic, with optional
//     background goroutines for the daemon-style examples.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/nfs"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/repl"
	"repro/internal/retry"
	"repro/internal/simnet"
	"repro/internal/ufs"
	"repro/internal/ufsvn"
)

// NotifyPort is the datagram port update notifications travel on.
const NotifyPort = "ficus-notify"

// Errors.
var (
	// ErrNoLocalReplica reports an operation that needs a locally stored
	// volume replica.
	ErrNoLocalReplica = errors.New("core: no local replica of volume")
	// ErrUnknownVolume reports a volume with no known locations.
	ErrUnknownVolume = errors.New("core: volume locations unknown")
	// ErrHostDown reports an operation on a crashed host (Crash without a
	// matching Restart).
	ErrHostDown = errors.New("core: host is down")
)

// ReplicaLoc places one volume replica at a host.
type ReplicaLoc struct {
	ID   ids.ReplicaID
	Addr simnet.Addr
}

// StorageOptions sizes a local volume replica's disk.
type StorageOptions struct {
	DiskBlocks int // default 16384
	Inodes     int // default 4096
}

func (o *StorageOptions) withDefaults() StorageOptions {
	v := StorageOptions{DiskBlocks: 16384, Inodes: 4096}
	if o == nil {
		return v
	}
	if o.DiskBlocks > 0 {
		v.DiskBlocks = o.DiskBlocks
	}
	if o.Inodes > 0 {
		v.Inodes = o.Inodes
	}
	return v
}

// localReplica bundles one locally stored volume replica with its storage.
type localReplica struct {
	layer *physical.Layer
	dev   *disk.Device
	fs    *ufs.FS
	opts  StorageOptions // resolved mount options, kept for Restart
}

// crashedReplica is what survives a host crash: the platter and the mount
// options needed to bring it back.
type crashedReplica struct {
	dev  *disk.Device
	opts StorageOptions
}

// graftEntry is one grafted (mounted) volume in the host's graft table.
type graftEntry struct {
	layer   *logical.Layer
	lastUse uint64
}

// Host is one Ficus machine.
type Host struct {
	addr    simnet.Addr
	net     *simnet.Network
	snHost  *simnet.Host
	replSrv *repl.Server
	alloc   ids.AllocatorID

	mu        sync.Mutex
	replicas  map[ids.VolumeReplicaHandle]*localReplica
	locations map[ids.VolumeHandle][]ReplicaLoc // each volume's rows, by replica id
	grafts    map[ids.VolumeHandle]*graftEntry
	nextVol   ids.VolumeID
	clock     uint64 // graft-pruning idle clock

	// Crash–restart lifecycle: while down, the host answers nothing and
	// its replicas live only as raw devices in crashed; after Restart each
	// remounted volume owes one anti-entropy rescan (reconciliation covers
	// the notifications that arrived while the host was down).
	down    bool
	crashed map[ids.VolumeReplicaHandle]*crashedReplica
	rescan  map[ids.VolumeHandle]bool

	// Peer health (healthy -> slow -> suspect -> dead with cool-down
	// reprobe), fed by every daemon contact with a remote host: failures,
	// deadline misses, and the virtual latency of each answered exchange.
	// The propagation daemon skips dead peers and sheds load from slow
	// ones; the reconciliation protocol — the safety net — always probes,
	// which is also what revives a recovered peer.
	health     *retry.Tracker
	slowCfg    SlowPeerConfig
	propStats  recon.Stats // accumulated propagation stats (hedges, sheds, budget)
	daemonTick uint64      // one tick per daemon pass (propagate or reconcile)

	// Notification plane (see gossip.go): configuration survives crashes
	// like slowCfg; the seen-rumor cache and counters are in-memory state.
	gossip     GossipConfig
	gossipSeq  uint64 // per-host rumor sequence, stamps originated rumors
	gossipSeen map[rumorKey]struct{}
	gossipFIFO []rumorKey
	gstats     GossipStats

	// Anti-entropy scheduler: per-(volume, peer) reconciliation recency
	// driving ReconcileOnce's visit order and budget (in-memory; a crash
	// resets it and the post-restart rescan covers the gap).
	sched *recon.Scheduler
}

// notifyMsg is the update-notification datagram payload (§2.5).  Src/Seq/
// Hops are the gossip-plane envelope: Src+Seq identify the rumor for
// duplicate suppression (standing in for the (origin, version-vector)
// identity of the announced update) and Hops is the remaining relay budget.
type notifyMsg struct {
	Vol    ids.VolumeHandle
	Dir    []ids.FileID
	File   ids.FileID
	Origin ids.ReplicaID
	Src    simnet.Addr // originating notifier host
	Seq    uint64      // per-Src rumor sequence number
	Hops   uint8       // remaining relay budget
}

// NewHost attaches a Ficus host to the network.  alloc is the host's
// pre-installed unique allocator id (§4.2: "prior to system installation,
// each Ficus host is issued a unique value as its allocator-id").
func NewHost(net *simnet.Network, addr simnet.Addr, alloc ids.AllocatorID) *Host {
	h := &Host{
		addr:       addr,
		net:        net,
		snHost:     net.Host(addr),
		alloc:      alloc,
		replicas:   make(map[ids.VolumeReplicaHandle]*localReplica),
		locations:  make(map[ids.VolumeHandle][]ReplicaLoc),
		grafts:     make(map[ids.VolumeHandle]*graftEntry),
		crashed:    make(map[ids.VolumeReplicaHandle]*crashedReplica),
		rescan:     make(map[ids.VolumeHandle]bool),
		nextVol:    1,
		health:     retry.NewTracker(3, 4),
		gossipSeen: make(map[rumorKey]struct{}),
		sched:      recon.NewScheduler(),
	}
	h.replSrv = repl.NewServer(h.snHost)
	h.snHost.HandleDatagram(NotifyPort, h.onNotify)
	return h
}

// Addr returns the host's network address.
func (h *Host) Addr() simnet.Addr { return h.addr }

// Allocator returns the host's allocator id.
func (h *Host) Allocator() ids.AllocatorID { return h.alloc }

// SimHost exposes the underlying network endpoint.
func (h *Host) SimHost() *simnet.Host { return h.snHost }

// nfsService names the NFS export of one volume replica.
func nfsService(vr ids.VolumeReplicaHandle) string { return "nfs:" + vr.String() }

// provision creates storage and a physical layer for a new volume replica
// and exports it.
func (h *Host) provision(vol ids.VolumeHandle, rid ids.ReplicaID, opts *StorageOptions) (*localReplica, error) {
	o := opts.withDefaults()
	dev := disk.New(o.DiskBlocks)
	fs, err := ufs.Mkfs(dev, o.Inodes, nil)
	if err != nil {
		return nil, err
	}
	layer, err := physical.Format(ufsvn.New(fs), vol, rid)
	if err != nil {
		return nil, err
	}
	lr := &localReplica{layer: layer, dev: dev, fs: fs, opts: o}
	h.replSrv.Register(layer)
	nfs.ServeOn(h.snHost, nfsService(layer.VolumeReplica()), layer, layer)
	return lr, nil
}

// CreateVolume allocates a fresh volume (named by this host's allocator id)
// and stores its first replica here.  The caller learns the volume handle
// and the replica id; further replicas are added with AddReplica.
func (h *Host) CreateVolume(opts *StorageOptions) (ids.VolumeHandle, ids.ReplicaID, error) {
	h.mu.Lock()
	if h.down {
		h.mu.Unlock()
		return ids.VolumeHandle{}, 0, ErrHostDown
	}
	vol := ids.VolumeHandle{Allocator: h.alloc, Volume: h.nextVol}
	h.nextVol++
	h.mu.Unlock()

	const rid = ids.ReplicaID(1)
	lr, err := h.provision(vol, rid, opts)
	if err != nil {
		return ids.VolumeHandle{}, 0, err
	}
	h.mu.Lock()
	h.replicas[lr.layer.VolumeReplica()] = lr
	h.putLocLocked(vol, ReplicaLoc{ID: rid, Addr: h.addr})
	h.mu.Unlock()
	return vol, rid, nil
}

// AddReplica creates a new replica of vol on this host with the given id
// (the id is handed out by whoever can reach an existing replica — the
// cluster harness in this reproduction) and seeds it by reconciling from a
// peer replica at seedAddr.  Per §3.1, this requires some replica of the
// volume to be accessible.
func (h *Host) AddReplica(vol ids.VolumeHandle, rid ids.ReplicaID, seed ReplicaLoc, opts *StorageOptions) error {
	if h.Down() {
		return ErrHostDown
	}
	lr, err := h.provision(vol, rid, opts)
	if err != nil {
		return err
	}
	peer := repl.NewClient(h.snHost, seed.Addr, ids.VolumeReplicaHandle{Vol: vol, Replica: seed.ID})
	if err := peer.Ping(); err != nil {
		h.replSrv.Unregister(lr.layer.VolumeReplica())
		return fmt.Errorf("core: cannot seed replica: %w", err)
	}
	if _, err := recon.ReconcileVolume(lr.layer, peer); err != nil {
		h.replSrv.Unregister(lr.layer.VolumeReplica())
		return err
	}
	h.mu.Lock()
	h.replicas[lr.layer.VolumeReplica()] = lr
	h.putLocLocked(vol, ReplicaLoc{ID: rid, Addr: h.addr})
	h.putLocLocked(vol, seed)
	h.mu.Unlock()
	return nil
}

// RemoveReplica withdraws a locally stored volume replica: its NFS export
// and repl service stop answering and its storage is released.  Per §3.1 a
// client "may change the location and quantity of file replicas whenever a
// file replica is available" — the caller is responsible for ensuring the
// volume retains at least one replica elsewhere (and for updating other
// hosts' location tables).
func (h *Host) RemoveReplica(vr ids.VolumeReplicaHandle) error {
	h.mu.Lock()
	_, ok := h.replicas[vr]
	if ok {
		delete(h.replicas, vr)
		h.dropLocLocked(vr.Vol, vr.Replica)
	}
	h.mu.Unlock()
	if !ok {
		return ErrNoLocalReplica
	}
	h.replSrv.Unregister(vr)
	h.snHost.RemoveRPC(nfsService(vr))
	return nil
}

// ForgetLocation removes a replica from this host's location table (used
// after another host dropped its replica).
func (h *Host) ForgetLocation(vol ids.VolumeHandle, rid ids.ReplicaID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropLocLocked(vol, rid)
}

// SetLocations installs (or extends) the host's knowledge of where vol's
// replicas live.  For the root volume this comes from configuration; for
// grafted volumes autografting fills it from graft-point entries.
func (h *Host) SetLocations(vol ids.VolumeHandle, locs []ReplicaLoc) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, l := range locs {
		h.putLocLocked(vol, l)
	}
}

// putLocLocked places replica l.ID of vol at l.Addr, keeping vol's rows in
// replica-id order.
func (h *Host) putLocLocked(vol ids.VolumeHandle, l ReplicaLoc) {
	rows := h.locations[vol]
	if i, ok := locIndex(rows, l.ID); ok {
		rows[i] = l
	} else {
		h.locations[vol] = slices.Insert(rows, i, l)
	}
}

// dropLocLocked removes replica rid's row of vol, if there is one.
func (h *Host) dropLocLocked(vol ids.VolumeHandle, rid ids.ReplicaID) {
	if i, ok := locIndex(h.locations[vol], rid); ok {
		h.locations[vol] = slices.Delete(h.locations[vol], i, i+1)
	}
}

// locIndex finds replica rid's row among rows ordered by replica id, or
// where it would go.
func locIndex(rows []ReplicaLoc, rid ids.ReplicaID) (int, bool) {
	return slices.BinarySearchFunc(rows, rid, func(l ReplicaLoc, rid ids.ReplicaID) int { return cmp.Compare(l.ID, rid) })
}

// replicaSet is one volume's replica table as one hold of h.mu saw it: the
// rows in replica-id order, the replica each row names on this host, and
// the daemon tick and RPC deadline a pull from them runs under.
//
// A row that names this host but no replica stored here (a stale location:
// the replica was removed, or a graft table still names it) is unreachable
// to every reader: nothing dials it, and the health tracker never hears of
// it.
type replicaSet struct {
	vol      ids.VolumeHandle
	self     simnet.Addr
	locs     []ReplicaLoc
	layers   []*physical.Layer // layers[i] is locs[i] co-resident, or nil
	tick     uint64
	deadline uint64
}

// replicaSet takes the snapshot of vol's replica table.
func (h *Host) replicaSet(vol ids.VolumeHandle) replicaSet {
	h.mu.Lock()
	defer h.mu.Unlock()
	rows := h.locations[vol]
	s := replicaSet{vol: vol, self: h.addr, locs: make([]ReplicaLoc, len(rows)),
		layers: make([]*physical.Layer, len(rows)), tick: h.daemonTick, deadline: h.slowCfg.RPCDeadline}
	copy(s.locs, rows)
	for i, l := range rows {
		if lr := h.replicas[ids.VolumeReplicaHandle{Vol: vol, Replica: l.ID}]; lr != nil && l.Addr == h.addr {
			s.layers[i] = lr.layer
		}
	}
	return s
}

// reachable reports whether row i is stored here or at another host: a
// stale location is not.
func (s *replicaSet) reachable(i int) bool { return s.layers[i] != nil || s.locs[i].Addr != s.self }

// pullSource builds a daemon's pull source for row i: the co-resident layer, or
// a repl client under the RPC deadline.  A gated source is skipped while the
// health tracker holds its host dead, until the cool-down ends, and is
// wrapped so its pulls feed the tracker: the pull is the probe.  An ungated
// source must answer a Ping first.  nil means unreachable.
func (h *Host) pullSource(s *replicaSet, i int, gated bool) recon.Peer {
	if s.layers[i] != nil {
		return s.layers[i]
	}
	if !s.reachable(i) {
		return nil
	}
	addr := s.locs[i].Addr
	c := repl.NewClient(h.snHost, addr, ids.VolumeReplicaHandle{Vol: s.vol, Replica: s.locs[i].ID})
	if s.deadline > 0 {
		c = c.WithDeadline(s.deadline)
	}
	if gated {
		if !h.health.ShouldProbe(string(addr), s.tick) {
			return nil
		}
		return &healthPeer{c: c, h: h, now: s.tick}
	}
	if err := c.Ping(); err != nil {
		if retry.Transient(err) {
			h.health.Fail(string(addr), s.tick)
		}
		return nil
	}
	h.health.OK(string(addr))
	return c
}

// Locations returns the known replica placement of vol, sorted by id.
func (h *Host) Locations(vol ids.VolumeHandle) []ReplicaLoc {
	return h.replicaSet(vol).locs
}

// LocalReplica returns the physical layer of a locally stored replica of
// vol (any one), or nil.
func (h *Host) LocalReplica(vol ids.VolumeHandle) *physical.Layer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.localReplicaLocked(vol)
}

func (h *Host) localReplicaLocked(vol ids.VolumeHandle) *physical.Layer {
	var best *physical.Layer
	for vr, lr := range h.replicas {
		if vr.Vol == vol && (best == nil || vr.Replica < best.Replica()) {
			best = lr.layer
		}
	}
	return best
}

// LocalReplicas lists all volume replicas stored on this host.
func (h *Host) LocalReplicas() []*physical.Layer {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*physical.Layer, 0, len(h.replicas))
	for _, lr := range h.replicas {
		out = append(out, lr.layer)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].VolumeReplica().String() < out[j].VolumeReplica().String()
	})
	return out
}

// Device returns the disk backing a local replica (for I/O accounting).
func (h *Host) Device(vr ids.VolumeReplicaHandle) *disk.Device {
	h.mu.Lock()
	defer h.mu.Unlock()
	if lr, ok := h.replicas[vr]; ok {
		return lr.dev
	}
	return nil
}

// UFS returns the file system backing a local replica (for cache control).
func (h *Host) UFS(vr ids.VolumeReplicaHandle) *ufs.FS {
	h.mu.Lock()
	defer h.mu.Unlock()
	if lr, ok := h.replicas[vr]; ok {
		return lr.fs
	}
	return nil
}

// Mount builds the logical layer for vol on this host: co-resident replicas
// are stacked directly, remote ones through NFS clients, exactly as in
// paper Figures 1 and 2 ("the NFS layer is omitted when both layers are
// co-resident").
func (h *Host) Mount(vol ids.VolumeHandle, policy logical.Policy) (*logical.Layer, error) {
	if h.Down() {
		return nil, ErrHostDown
	}
	s := h.replicaSet(vol)
	if len(s.locs) == 0 {
		return nil, ErrUnknownVolume
	}
	// Local replicas first, then the remote ones, each by replica id: the
	// FirstAvailable order.
	replicas := make([]logical.Replica, 0, len(s.locs))
	for i, l := range s.locs {
		if s.layers[i] != nil {
			replicas = append(replicas, logical.Replica{ID: l.ID, FS: s.layers[i]})
		}
	}
	for i, l := range s.locs {
		if s.layers[i] == nil && s.reachable(i) {
			vr := ids.VolumeReplicaHandle{Vol: vol, Replica: l.ID}
			replicas = append(replicas, logical.Replica{ID: l.ID, FS: nfs.DialService(h.snHost, l.Addr, nfsService(vr), nil)})
		}
	}
	lay := logical.New(vol, replicas, logical.Options{
		Policy: policy,
		Notify: h.notifier(vol),
		Graft:  h.graftHook(policy),
	})
	return lay, nil
}

// notifier announces an update to the other hosts storing a replica of vol
// (§2.5): the update becomes a rumor sent to a rendezvous-chosen Fanout-sample
// of the volume's replica set — every other holder when Fanout is 0, the
// paper's one datagram per replica — which receivers relay onward while the
// hop budget lasts (see gossip.go and onNotify).
func (h *Host) notifier(vol ids.VolumeHandle) logical.Notifier {
	return func(dir []ids.FileID, file ids.FileID, origin ids.ReplicaID) {
		h.mu.Lock()
		h.gossipSeq++
		msg := notifyMsg{
			Vol: vol, Dir: dir, File: file, Origin: origin,
			Src: h.addr, Seq: h.gossipSeq, Hops: uint8(h.gossip.TTL),
		}
		// Mark our own rumor seen so a relayed copy looping back is
		// suppressed, and feed any other co-resident replicas directly: a
		// host sends itself no datagram.
		h.markRumorLocked(rumorKey{h.addr, msg.Seq})
		h.noteNewVersionLocked(&msg)
		dsts := h.gossipPickLocked(vol, rumorHash(msg.Src, msg.Seq),
			map[simnet.Addr]bool{h.addr: true}, h.gossip.Fanout)
		h.gstats.RumorsOriginated++
		h.gstats.NoticesSent += uint64(len(dsts))
		h.mu.Unlock()
		if len(dsts) > 0 {
			h.snHost.Multicast(NotifyPort, encodeNotify(&msg), dsts)
		}
	}
}

// noteNewVersionLocked feeds an announced update into the new-version cache
// of every local replica of the volume, except the originating replica
// itself (it already has the new version).
func (h *Host) noteNewVersionLocked(msg *notifyMsg) {
	for vr, lr := range h.replicas {
		if vr.Vol == msg.Vol && vr.Replica != msg.Origin {
			lr.layer.NoteNewVersion(msg.Dir, msg.File, msg.Origin)
			h.gstats.NotificationsSeen++
		}
	}
}

// onNotify receives an update notification.  A datagram that fails to decode
// is dropped — notifications are best-effort and reconciliation is the
// backstop — but counted, never silently swallowed.  Hosts storing no replica
// of the volume drop the rumor — replica sets are partial, and only holders
// carry a volume's traffic.
//
// The rumor first passes duplicate suppression — at-least-once links and
// overlapping relay paths must not re-arm the caches — then feeds the local
// new-version caches and, if its hop budget allows, is relayed to a fresh
// fanout sample of the volume's replica set.  The relay happens after h.mu
// is released: rumor paths can cycle back to this host synchronously (simnet
// delivery runs in the sender's goroutine), and the seen-cache, not the
// lock, is what terminates the cycle.
func (h *Host) onNotify(from simnet.Addr, payload []byte) {
	msg, err := decodeNotify(payload)
	h.mu.Lock()
	if err != nil {
		h.gstats.NotifyCodecErrors++
		h.mu.Unlock()
		return
	}
	if h.localReplicaLocked(msg.Vol) == nil {
		h.gstats.RumorsForeign++
		h.mu.Unlock()
		return
	}
	if !h.markRumorLocked(rumorKey{msg.Src, msg.Seq}) {
		h.gstats.RumorsSuppressed++
		h.mu.Unlock()
		return
	}
	h.gstats.RumorsAccepted++
	h.noteNewVersionLocked(&msg)
	if msg.Hops == 0 {
		h.gstats.RumorsExpired++
		h.mu.Unlock()
		return
	}
	dsts := h.gossipPickLocked(msg.Vol, rumorHash(msg.Src, msg.Seq),
		map[simnet.Addr]bool{h.addr: true, from: true, msg.Src: true}, h.gossip.Fanout)
	h.gstats.RumorsRelayed += uint64(len(dsts))
	h.mu.Unlock()
	if len(dsts) > 0 {
		msg.Hops--
		h.snHost.Multicast(NotifyPort, encodeNotify(&msg), dsts)
	}
}

// advanceTick steps the host's virtual daemon clock (one tick per daemon
// pass); peer-health cool-downs are measured on it.
func (h *Host) advanceTick() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.daemonTick++
	return h.daemonTick
}

// SlowPeerConfig tunes the host's slow-peer tolerance: RPC deadlines, the
// latency threshold behind the Slow health state, hedged pulls, and the
// propagation pass's backpressure knobs.  The zero value disables all of
// it, reproducing the pre-deadline behavior exactly.
type SlowPeerConfig struct {
	// RPCDeadline bounds every repl exchange the daemons issue, in virtual
	// ticks; an exchange still unanswered at the deadline fails with a
	// transient deadline error.  0 = wait forever (a hung peer then costs
	// simnet.HangTicks).
	RPCDeadline uint64
	// SlowAfter marks a peer Slow once its latency EWMA exceeds this many
	// ticks, even while every exchange succeeds.  0 = off.
	SlowAfter uint64
	// HedgeAfter enables hedged pulls past this many ticks (see
	// recon.PropagateConfig.HedgeAfter).  0 = off.
	HedgeAfter uint64
	// TickBudget bounds the virtual ticks one propagation pass spends
	// pulling.  0 = off.
	TickBudget uint64
}

// ConfigureSlowPeers installs the host's slow-peer tolerance settings; they
// apply to every subsequent daemon pass.  Configuration survives a crash
// (it is kernel configuration, not in-memory health knowledge).
func (h *Host) ConfigureSlowPeers(cfg SlowPeerConfig) {
	h.mu.Lock()
	h.slowCfg = cfg
	h.mu.Unlock()
	h.health.SetSlowThreshold(cfg.SlowAfter)
}

// PropagationStats returns the host's accumulated propagation-pass stats —
// the hedging/shedding/backpressure counters live here.
func (h *Host) PropagationStats() recon.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.propStats
}

// peerFinder builds the propagation daemon's pull-source lookup for one
// local replica.  With gated set, peers the tracker considers dead are
// skipped without any network traffic until their cool-down expires — the
// propagation daemon uses this so a flapping or long-dead host is not
// hammered every pass.  Reconciliation and GC pass gated=false: correctness
// there depends on actual reachability (a skipped peer must mean an
// unreachable peer), so they pay an explicit Ping, which is also what
// revives a recovered peer.
func (h *Host) peerFinder(local *physical.Layer, gated bool) recon.PeerFinder {
	return func(origin ids.ReplicaID) recon.Peer {
		s := h.replicaSet(local.Volume())
		if i, ok := locIndex(s.locs, origin); ok {
			return h.pullSource(&s, i, gated)
		}
		return nil
	}
}

// healthPeer funnels the outcome of every propagation pull into the host's
// health tracker.  A transport-class failure (peer unreachable after
// retries) marks the peer down; a deadline miss counts both as a failure
// and as a latency sample at the deadline — the slowness being measured;
// any answered call — even one reporting a peer-side error — proves the
// host alive and feeds its virtual latency into the peer's EWMA.
type healthPeer struct {
	c   *repl.Client
	h   *Host
	now uint64
}

var (
	_ recon.Peer            = (*healthPeer)(nil)
	_ recon.LatencyReporter = (*healthPeer)(nil)
	_ recon.SlowReporter    = (*healthPeer)(nil)
	_ recon.AddrKeyer       = (*healthPeer)(nil)
)

func (p *healthPeer) note(err error) {
	key := string(p.c.Addr())
	// Deadline first: repl's deadline error also matches ErrUnreachable (so
	// transport-failure paths treat it as a failed exchange), but it is the
	// more specific verdict and carries a latency meaning.
	if err != nil && errors.Is(err, repl.ErrDeadline) {
		p.h.health.DeadlineMiss(key)
		p.h.health.ObserveLatency(key, p.c.LastElapsed())
		p.h.health.Fail(key, p.now)
		return
	}
	if err != nil && errors.Is(err, repl.ErrUnreachable) {
		p.h.health.Fail(key, p.now)
		return
	}
	p.h.health.ObserveLatency(key, p.c.LastElapsed())
	p.h.health.OK(key)
}

// LastElapsed reports the virtual ticks of the most recent exchange.
func (p *healthPeer) LastElapsed() uint64 { return p.c.LastElapsed() }

// SlowPeer reports whether the health tracker currently rates this peer
// Slow (latency EWMA above the configured threshold).
func (p *healthPeer) SlowPeer() bool {
	return p.h.health.State(string(p.c.Addr())) == retry.Slow
}

// PeerKey identifies the peer's host, so that recon.samePeer holds back a
// hedge to the origin's own host.
func (p *healthPeer) PeerKey() string { return string(p.c.Addr()) }

func (p *healthPeer) Replica() ids.ReplicaID { return p.c.Replica() }

func (p *healthPeer) DirEntries(dirPath []ids.FileID) (physical.DirState, error) {
	ds, err := p.c.DirEntries(dirPath)
	p.note(err)
	return ds, err
}

func (p *healthPeer) PullBatchDelta(reqs []physical.PullRequest, have []physical.BlockAddr) ([]physical.PullResult, error) {
	res, err := p.c.PullBatchDelta(reqs, have)
	p.note(err)
	return res, err
}

// PeerHealthInfo reports the full tracked health profile of the host at
// addr: state, failure streak, latency EWMA, deadline misses.
func (h *Host) PeerHealthInfo(addr simnet.Addr) retry.HealthInfo {
	return h.health.Snapshot(string(addr))
}

// hedgeFinder builds the propagation daemon's backup-source lookup for one
// local replica: given an origin it returns the next-healthiest OTHER
// replica of the volume that could serve the same versions — co-resident
// replicas first (free in virtual time), then remote peers ranked by
// health state (healthy before slow before suspect; dead excluded), then
// by latency EWMA, then by replica id.  The ranking reads only tracked
// state — no probe traffic — so a hedge decision costs nothing when it is
// not taken.
func (h *Host) hedgeFinder(local *physical.Layer) func(ids.ReplicaID) recon.Peer {
	return func(origin ids.ReplicaID) recon.Peer {
		s := h.replicaSet(local.Volume())
		best, bestRank, bestEWMA := -1, 0, uint64(0)
		for i, l := range s.locs {
			if l.ID == origin || l.ID == local.Replica() || !s.reachable(i) {
				continue
			}
			rank, ewma := -1, uint64(0) // co-resident: free, always first
			if s.layers[i] == nil {
				info := h.health.Snapshot(string(l.Addr))
				rank, ewma = int(info.State), info.EWMATicks
			}
			if best < 0 || rank < bestRank || rank == bestRank && ewma < bestEWMA {
				best, bestRank, bestEWMA = i, rank, ewma
			}
		}
		if best < 0 || bestRank == int(retry.Dead) {
			return nil // no alternate, or every alternate is dead
		}
		return h.pullSource(&s, best, true)
	}
}

// PropagateOnce runs one pass of the update propagation daemon over every
// local replica, pulling announced versions from their origins (§3.2), with
// the hedging and backpressure of the host's slow-peer settings
// (ConfigureSlowPeers).  Per-entry transient failures are absorbed into the
// returned Stats (Deferred/Failures); only permanent, corruption-class errors
// surface.  A down host's daemons do not run: the pass is a no-op.  Any
// post-restart rescan obligation is paid first, before the pull pass.
func (h *Host) PropagateOnce() (recon.Stats, error) {
	if h.Down() {
		return recon.Stats{}, nil
	}
	h.advanceTick()
	h.mu.Lock()
	sc := h.slowCfg
	h.mu.Unlock()
	cfg := recon.PropagateConfig{Policy: retry.Default(), HedgeAfter: sc.HedgeAfter, TickBudget: sc.TickBudget}
	total := h.recoveryRescan()
	var err error
	for _, layer := range h.LocalReplicas() {
		lcfg := cfg
		if lcfg.HedgeAfter > 0 {
			lcfg.FindHedge = h.hedgeFinder(layer)
		}
		var stats recon.Stats
		stats, err = recon.Propagate(layer, h.peerFinder(layer, true), lcfg)
		total.Add(stats)
		if err != nil {
			break
		}
	}
	h.mu.Lock()
	h.propStats.Add(total)
	h.mu.Unlock()
	return total, err
}

// Fsck runs both consistency checkers — the UFS fsck and the Ficus
// physical-layer check — over every local volume replica, returning all
// problems found (empty means clean).
func (h *Host) Fsck() ([]string, error) {
	h.mu.Lock()
	reps := make([]*localReplica, 0, len(h.replicas))
	for _, lr := range h.replicas {
		reps = append(reps, lr)
	}
	h.mu.Unlock()
	// Deterministic report order regardless of map iteration.
	sort.Slice(reps, func(i, j int) bool {
		return vrhLess(reps[i].layer.VolumeReplica(), reps[j].layer.VolumeReplica())
	})
	var out []string
	for _, lr := range reps {
		vr := lr.layer.VolumeReplica()
		ufsProbs, err := lr.fs.Check()
		if err != nil {
			return out, err
		}
		for _, p := range ufsProbs {
			out = append(out, fmt.Sprintf("%s [ufs]: %s", vr, p))
		}
		ficusProbs, err := lr.layer.Check()
		if err != nil {
			return out, err
		}
		for _, p := range ficusProbs {
			out = append(out, fmt.Sprintf("%s [ficus]: %s", vr, p))
		}
	}
	return out, nil
}

// CollectGarbage runs tombstone garbage collection on every local replica
// whose volume has ALL replicas currently reachable (the safety condition:
// a tombstone may be dropped only once every replica has seen the delete).
// Volumes with any unreachable replica are skipped.  Returns the number of
// tombstones collected.
func (h *Host) CollectGarbage() (int, error) {
	if h.Down() {
		return 0, nil
	}
	total := 0
next:
	for _, layer := range h.LocalReplicas() {
		s := h.replicaSet(layer.Volume())
		peers := make([]recon.Peer, 0, len(s.locs))
		for i, l := range s.locs {
			if l.ID == layer.Replica() {
				continue
			}
			peer := h.pullSource(&s, i, false)
			if peer == nil {
				continue next
			}
			peers = append(peers, peer)
		}
		n, err := recon.TombstoneGC(layer, peers)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReconcileOnce runs the periodic reconciliation protocol: every local
// replica pulls from known remote replicas of its volume (§3.3), visited in
// the anti-entropy scheduler's priority order — longest-unattempted first,
// Suspect/Slow peers boosted — and capped at the GossipConfig.ReconPeers
// budget when one is set (0 = every known peer).
// Reconciliation is the safety net, so visits are never health-gated: a
// scheduled peer is probed even if the tracker thinks it dead, which is also
// how a recovered peer's health state resets; the budget only rotates who is
// probed this pass, and staleness growth guarantees every peer keeps being
// reached.  Per-peer failures (e.g. a partition cutting in mid-pass) are
// normal life and absorbed.  A pass also discharges any post-restart rescan
// obligation once it completes cleanly against at least one remote peer.  A
// down host's daemons do not run.
func (h *Host) ReconcileOnce() (recon.Stats, error) {
	if h.Down() {
		return recon.Stats{}, nil
	}
	h.advanceTick()
	var total recon.Stats
	for _, layer := range h.LocalReplicas() {
		total.Add(h.reconcileReplica(layer))
	}
	return total, nil
}

// vhLess orders volume handles deterministically (allocator, then volume).
func vhLess(a, b ids.VolumeHandle) bool {
	if a.Allocator != b.Allocator {
		return a.Allocator < b.Allocator
	}
	return a.Volume < b.Volume
}

// vrhLess orders volume replica handles deterministically.
func vrhLess(a, b ids.VolumeReplicaHandle) bool {
	if a.Vol != b.Vol {
		return vhLess(a.Vol, b.Vol)
	}
	return a.Replica < b.Replica
}
