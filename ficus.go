// Package ficus is the public face of this reproduction of the Ficus
// replicated file system (Guy, Heidemann, Mak, Page, Popek, Rothmeier —
// "Implementation of the Ficus Replicated File System", Summer USENIX 1990).
//
// Ficus is an optimistically replicated file system built as a stack of
// vnode layers: a logical layer presenting a one-copy abstraction over a
// set of physical replica layers, with NFS as the transport between layers
// on different hosts and UFS as the storage substrate.  Any accessible
// replica may be read *and updated* (one-copy availability); updates
// propagate via asynchronous notification and a propagation daemon, and a
// periodic reconciliation protocol merges divergent replicas — repairing
// directory conflicts automatically and reporting file conflicts to the
// owner.
//
// The package wraps a deterministic multi-host simulation: hosts with their
// own disks and UFS instances, a partitionable network, and explicit daemon
// steps, so the paper's behaviours are scriptable:
//
//	c, _ := ficus.NewCluster(3)
//	m0, _ := c.Mount(0)
//	_ = m0.WriteFile("/doc", []byte("v1"))
//	c.Partition([]int{0}, []int{1, 2})   // network splits
//	_ = m0.WriteFile("/doc", []byte("v2")) // still updatable: one-copy availability
//	c.Heal()
//	c.Settle(10)                          // reconciliation daemons converge
//	for _, conf := range c.Conflicts() {  // concurrent updates reported
//		_ = c.Resolve(conf, []byte("merged"))
//	}
package ficus

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/simnet"
)

// Policy selects how the logical layer picks among accessible replicas.
type Policy = logical.Policy

// Replica-selection policies.
const (
	// MostRecent is the paper's default: select the most recent copy
	// available.
	MostRecent = logical.MostRecent
	// FirstAvailable uses the closest (first configured) accessible copy.
	FirstAvailable = logical.FirstAvailable
)

// MaxName is the longest file name component Ficus accepts: the open/close
// encoding must fit the substrate's 255-byte name field (paper §2.3 fn2).
const MaxName = logical.MaxName

// Option tunes cluster construction.
type Option func(*clusterConfig)

type clusterConfig struct {
	seed    int64
	policy  Policy
	storage *core.StorageOptions
}

// WithSeed fixes the simulation's random seed (default 1).
func WithSeed(seed int64) Option { return func(c *clusterConfig) { c.seed = seed } }

// WithPolicy sets the default replica-selection policy for Mount.
func WithPolicy(p Policy) Option { return func(c *clusterConfig) { c.policy = p } }

// WithStorage sizes each host's disk.
func WithStorage(diskBlocks, inodes int) Option {
	return func(c *clusterConfig) {
		c.storage = &core.StorageOptions{DiskBlocks: diskBlocks, Inodes: inodes}
	}
}

// Cluster is a set of Ficus hosts on one simulated network, sharing a root
// volume replicated on every host.
type Cluster struct {
	net     *simnet.Network
	hosts   []*core.Host
	root    ids.VolumeHandle
	policy  Policy
	storage *core.StorageOptions

	volumes map[Volume][]core.ReplicaLoc
	nextRep map[Volume]ids.ReplicaID
}

// hostName renders host i's network address.
func hostName(i int) simnet.Addr { return simnet.Addr(fmt.Sprintf("h%d", i)) }

// NewCluster builds a cluster of n hosts with the root volume replicated on
// all of them.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	cfg := clusterConfig{seed: 1, policy: MostRecent}
	for _, o := range opts {
		o(&cfg)
	}
	if n < 1 {
		return nil, errors.New("ficus: need at least one host")
	}
	c := &Cluster{
		net:     simnet.New(cfg.seed),
		policy:  cfg.policy,
		storage: cfg.storage,
		volumes: make(map[Volume][]core.ReplicaLoc),
		nextRep: make(map[Volume]ids.ReplicaID),
	}
	for i := 0; i < n; i++ {
		c.hosts = append(c.hosts, core.NewHost(c.net, hostName(i), ids.AllocatorID(i+1)))
	}
	// Replica i+1 on host i, each seeded from host 0's; the hosts learn the
	// placement once, after the last replica is seeded.
	root, err := c.NewVolume(0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := c.addReplica(root, i); err != nil {
			return nil, err
		}
	}
	c.setLocations(root)
	c.root = root.h
	return c, nil
}

// NumHosts returns the cluster size.
func (c *Cluster) NumHosts() int { return len(c.hosts) }

// RootVolume returns the shared root volume.
func (c *Cluster) RootVolume() Volume { return Volume{h: c.root} }

// Partition splits the network into groups of host indices; unlisted hosts
// end up isolated.
func (c *Cluster) Partition(groups ...[]int) {
	addrGroups := make([][]simnet.Addr, len(groups))
	for i, g := range groups {
		for _, idx := range g {
			addrGroups[i] = append(addrGroups[i], hostName(idx))
		}
	}
	c.net.Partition(addrGroups...)
}

// Heal reconnects every host.
func (c *Cluster) Heal() { c.net.Heal() }

// SetHostDown crashes or revives host i's *network* presence only: services
// and in-memory state survive.  For the full power-failure model — state
// lost, disks kept, remount on reboot — use CrashHost/RestartHost.
func (c *Cluster) SetHostDown(i int, down bool) {
	c.hosts[i].SimHost().SetDown(down)
}

// CrashHost power-fails host i: every service stops answering and all
// in-memory state (mounts, caches, peer health) is lost, while its disks
// survive for RestartHost.  Idempotent.
func (c *Cluster) CrashHost(i int) { c.hosts[i].Crash() }

// RestartHost reboots a crashed host: each volume replica is remounted from
// its surviving disk (UFS crash recovery, then physical-layer recovery),
// services are re-exported, and every remounted volume is flagged for one
// anti-entropy rescan on the next daemon pass — which also finds again every
// version the lost new-version cache was waiting to pull.  Mounts taken
// before the crash are dead; call Mount again.
func (c *Cluster) RestartHost(i int) error { return c.hosts[i].Restart() }

// HostDown reports whether host i is currently crashed.
func (c *Cluster) HostDown(i int) bool { return c.hosts[i].Down() }

// SyncStats summarizes propagation/reconciliation work.
type SyncStats = recon.Stats

// Propagate runs one update-propagation daemon pass on every host (paper
// §3.2).
func (c *Cluster) Propagate() (SyncStats, error) {
	return c.eachHost((*core.Host).PropagateOnce)
}

// Reconcile runs one reconciliation pass on every host (paper §3.3).
func (c *Cluster) Reconcile() (SyncStats, error) {
	return c.eachHost((*core.Host).ReconcileOnce)
}

// eachHost runs pass on every host in order and sums the stats, stopping at
// the first error.
func (c *Cluster) eachHost(pass func(*core.Host) (recon.Stats, error)) (SyncStats, error) {
	var total SyncStats
	for _, h := range c.hosts {
		s, err := pass(h)
		total.Add(s)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Settle reconciles until quiescent, up to maxRounds passes.
func (c *Cluster) Settle(maxRounds int) error {
	for round := 0; round < maxRounds; round++ {
		s, err := c.Reconcile()
		if err != nil {
			return err
		}
		if !s.Changed() {
			return nil
		}
	}
	return fmt.Errorf("ficus: not quiescent after %d rounds", maxRounds)
}

// CollectGarbage runs tombstone garbage collection on every host.  A
// volume's tombstones are collected only while all of its replicas are
// reachable — the safety condition for completing an optimistic delete.
// Returns the number of tombstones collected.
func (c *Cluster) CollectGarbage() (int, error) {
	total := 0
	for _, h := range c.hosts {
		n, err := h.CollectGarbage()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Evict discards host i's local copy of the file at path in the root
// volume while keeping the name: selective storage (paper §4.1).  Reads
// from that host transparently fail over to another replica; a later
// reconciliation or propagation pass may re-materialize the local copy.
func (c *Cluster) Evict(host int, path string) error {
	return c.hosts[host].EvictFile(c.root, path)
}

// Fsck runs the UFS and Ficus consistency checkers over every replica on
// every host; an empty result means the whole cluster is structurally
// clean.
func (c *Cluster) Fsck() ([]string, error) {
	var out []string
	for i, h := range c.hosts {
		probs, err := h.Fsck()
		if err != nil {
			return out, err
		}
		for _, p := range probs {
			out = append(out, fmt.Sprintf("host %d: %s", i, p))
		}
	}
	return out, nil
}

// Tick advances every host's graft-pruning idle clock.
func (c *Cluster) Tick() {
	for _, h := range c.hosts {
		h.Tick()
	}
}

// PruneGrafts prunes idle grafts on every host, returning the total pruned.
func (c *Cluster) PruneGrafts(maxIdle uint64) int {
	n := 0
	for _, h := range c.hosts {
		n += h.PruneGrafts(maxIdle)
	}
	return n
}

// Conflict is one detected concurrent-update conflict on a regular file,
// reported to the owner.
type Conflict struct {
	Host     int    // host whose replica logged it
	FileID   string // the logical file's id
	LocalVV  string // the two divergent update histories
	RemoteVV string
	Note     string

	inner physical.Conflict
	layer *physical.Layer
}

// Conflicts gathers every host's conflict log for the root volume.
func (c *Cluster) Conflicts() []Conflict {
	var out []Conflict
	for i, h := range c.hosts {
		l := h.LocalReplica(c.root)
		if l == nil {
			continue
		}
		for _, pc := range l.Conflicts() {
			out = append(out, Conflict{
				Host:     i,
				FileID:   pc.File.String(),
				LocalVV:  pc.LocalVV.String(),
				RemoteVV: pc.RemoteVV.String(),
				Note:     pc.Note,
				inner:    pc,
				layer:    l,
			})
		}
	}
	return out
}

// Resolve installs newData as the resolution of a conflict, under a version
// vector dominating both histories so the resolution propagates like any
// other update; installing it clears the conflict log entry.  Several hosts may
// report the same logical conflict: resolve each file ONCE and let the
// resolution propagate (Settle) — issuing independent resolutions from two
// hosts is itself a pair of concurrent updates and will re-conflict.
func (c *Cluster) Resolve(conf Conflict, newData []byte) error {
	if conf.layer == nil {
		return errors.New("ficus: conflict not obtained from Conflicts()")
	}
	return recon.Resolve(conf.layer, conf.inner, newData)
}

// Host returns low-level access to host i (for experiments).
func (c *Cluster) Host(i int) *core.Host { return c.hosts[i] }

// FaultConfig programs the simulated network's fault plane: RPC request
// loss, reply loss and hangs, datagram loss, duplication and reordering,
// and per-leg virtual latency with a heavy tail.  Rates are probabilities
// in [0, 1], latencies virtual ticks; every draw comes from a per-link RNG
// seeded from the cluster's seed, so faulty runs stay deterministic and
// none of it blocks real time.
type FaultConfig = simnet.FaultProfile

// InjectFaults installs f on every link; a link's own InjectLinkFaults
// fields still override it there.  The replication stack is expected to
// converge regardless: RPC callers retry idempotent pulls, propagation
// backs off and re-queues failed entries, and reconciliation remains the
// lossless safety net.
func (c *Cluster) InjectFaults(f FaultConfig) { c.net.SetFaults(f) }

// InjectLinkFaults installs f on the directed link from host `from` to
// host `to`: its non-zero fields override InjectFaults' there, its zero
// fields inherit them.  ReorderRate, a property of one multicast's fan-out,
// counts only network-wide.
func (c *Cluster) InjectLinkFaults(from, to int, f FaultConfig) {
	c.net.SetLinkFaults(hostName(from), hostName(to), f)
}

// ClearFaults removes every injected fault, network-wide and per-link.  A
// hang (HangHost) stays, as a crash does.
func (c *Cluster) ClearFaults() { c.net.ClearFaults() }

// HangHost makes host i a hung peer: every RPC sent TO it is accepted and
// executed, but the reply never arrives — the failure mode a crashed host
// cannot produce and deadlines exist for.  Datagrams and the host's own
// outbound traffic still flow.  The hang is the host's state, not a link's
// fault: no link's profile changes, and ClearFaults leaves it.  Undo with
// UnhangHost.
func (c *Cluster) HangHost(i int) { c.net.Host(hostName(i)).SetHung(true) }

// UnhangHost lifts HangHost's hang; what else is injected on the links to
// host i stays in force.
func (c *Cluster) UnhangHost(i int) { c.net.Host(hostName(i)).SetHung(false) }

// GossipConfig tunes the epidemic update-notification plane and the
// anti-entropy scheduler's per-pass peer budget.  The zero value is the
// paper's scheme: every other holder is told directly, nobody relays, and
// every peer is swept each pass.
type GossipConfig = core.GossipConfig

// ConfigureGossip installs the gossip/scheduler settings on every host.
func (c *Cluster) ConfigureGossip(cfg GossipConfig) {
	for _, h := range c.hosts {
		h.ConfigureGossip(cfg)
	}
}

// GossipStats counts one host's update-notification activity: rumors sent,
// relayed, accepted and suppressed, new-version cache feeds, and datagrams
// that failed to decode.
type GossipStats = core.GossipStats

// GossipStatsFor returns host i's accumulated notification-plane counters.
func (c *Cluster) GossipStatsFor(host int) GossipStats {
	return c.hosts[host].GossipStats()
}

// PeerPriority is one entry of a host's anti-entropy plan: the order the
// scheduler would visit the root volume's peers in right now, stalest and
// least-healthy first.  Peer is the peer's host index (-1 if the address maps
// to no host).
type PeerPriority struct {
	core.PeerPriority
	Peer int
}

// StalePeersFor reports host i's current anti-entropy priority order over
// the root volume — what its next reconcile pass would visit first.
func (c *Cluster) StalePeersFor(host int) []PeerPriority {
	plan := c.hosts[host].AntiEntropyPlan(c.root)
	out := make([]PeerPriority, len(plan))
	for i, p := range plan {
		out[i] = PeerPriority{PeerPriority: p, Peer: c.hostIndex(p.Addr)}
	}
	return out
}

// hostIndex maps a host address back to the host's index, -1 if no host has
// it.
func (c *Cluster) hostIndex(addr simnet.Addr) int {
	for i, h := range c.hosts {
		if h.Addr() == addr {
			return i
		}
	}
	return -1
}

// SlowPeerConfig tunes the hosts' slow-peer tolerance: RPC deadlines, the
// Slow health threshold, hedged pulls, and propagation backpressure.
type SlowPeerConfig = core.SlowPeerConfig

// ConfigureSlowPeers installs the slow-peer tolerance settings on every
// host; they govern all subsequent daemon passes.
func (c *Cluster) ConfigureSlowPeers(cfg SlowPeerConfig) {
	for _, h := range c.hosts {
		h.ConfigureSlowPeers(cfg)
	}
}

// PropagationStatsFor returns host i's propagation stats summed over every
// pass so far, the slow-peer tolerance work (hedges, sheds, budget
// deferrals, pass ticks) included.  Per-peer deadline misses are in
// PeerHealthFor.
func (c *Cluster) PropagationStatsFor(host int) SyncStats {
	return c.hosts[host].PropagationStats()
}

// DiskFaultConfig programs steady-state disk fault injection on one host:
// seeded probabilities of a transient I/O error per read and per write,
// plus SILENT corruption — a read whose buffer is garbled after the fact,
// or a write whose stored bytes are garbled, both reported as success.
// Failed operations return a typed transient error, so the replication
// stack's retry machinery treats a flaky platter like a flaky link;
// corrupted operations are what the checksum scrubber exists to catch.
type DiskFaultConfig = disk.FaultProfile

// InjectDiskFaults applies the profile to every disk behind host i's
// replicas (crashed or mounted).  A zero config clears injection.
func (c *Cluster) InjectDiskFaults(host int, f DiskFaultConfig) {
	for _, d := range c.hosts[host].Devices() {
		d.InjectFaults(f)
	}
}

// DiskStats counts disk I/O and injected faults.
type DiskStats = disk.Stats

// DiskStatsFor sums the counters of every disk of host i.
func (c *Cluster) DiskStatsFor(host int) DiskStats {
	var out DiskStats
	for _, d := range c.hosts[host].Devices() {
		out.Add(d.Stats())
	}
	return out
}

// Scrub runs one integrity pass on every host: a verification sweep, then,
// on a host left holding a quarantined copy, the reconciliation pass whose
// pulls heal it (a pull of a quarantined copy asks unconditionally).  It
// sums those reconciliation passes' stats: a healed version counts as
// FilesPulled.  What the sweeps verified, resealed and quarantined, and what
// the pulls repaired, is the difference of IntegrityStatsFor taken around
// the call.
func (c *Cluster) Scrub() (SyncStats, error) {
	return c.eachHost((*core.Host).ScrubOnce)
}

// ScrubHost runs one integrity pass (sweep, then heal) on host i alone.
func (c *Cluster) ScrubHost(host int) (SyncStats, error) {
	return c.hosts[host].ScrubOnce()
}

// IntegrityStats reports the cumulative integrity counters of one host
// (Quarantined is a gauge: files currently quarantined).
type IntegrityStats = physical.IntegrityStats

// IntegrityStatsFor returns host i's aggregate integrity counters.
func (c *Cluster) IntegrityStatsFor(host int) IntegrityStats {
	return c.hosts[host].IntegrityStats()
}

// BlockStats reports one host's delta-propagation work: blocks it shipped to
// pullers, and blocks its own installs reused from the versions they
// replaced.  Every counter is cumulative.
type BlockStats = physical.BlockStats

// BlockStatsFor returns host i's aggregate delta-propagation counters.
func (c *Cluster) BlockStatsFor(host int) BlockStats {
	return c.hosts[host].BlockStats()
}

// InjectBitRot silently flips one bit of the stored data byte at off in
// host i's local copy of the file at path in the root volume, leaving the
// version vector and the seal in the copy's aux untouched — at-rest damage for
// the scrubber to detect and heal.
func (c *Cluster) InjectBitRot(host int, path string, off uint64) error {
	return c.hosts[host].CorruptFile(c.root, path, off)
}

// PendingVersion is one new-version cache entry: a version a
// replica has been told about but not yet pulled, with the propagation
// daemon's retry bookkeeping.  Replica is the local replica holding it.
type PendingVersion struct {
	physical.NewVersion
	Replica ids.VolumeReplicaHandle
}

// PendingVersionsFor dumps every replica's new-version cache on host i, in
// deterministic order.  The cache is volatile: a crash empties it, and after
// RestartHost the first daemon pass's rescan installs what it held.
func (c *Cluster) PendingVersionsFor(host int) []PendingVersion {
	var out []PendingVersion
	for _, l := range c.hosts[host].LocalReplicas() {
		for _, nv := range l.PendingVersions() {
			out = append(out, PendingVersion{NewVersion: nv, Replica: l.VolumeReplica()})
		}
	}
	return out
}

// PeerHealth is host i's view of one peer: healthy, slow, suspect, or
// dead, plus the latency profile behind the verdict.  Peer is the peer's
// host index.
type PeerHealth struct {
	retry.HealthInfo
	Peer int
}

// PeerHealthFor reports host i's health verdict for every other host.
func (c *Cluster) PeerHealthFor(host int) []PeerHealth {
	var out []PeerHealth
	for j := range c.hosts {
		if j != host {
			out = append(out, PeerHealth{HealthInfo: c.hosts[host].PeerHealthInfo(hostName(j)), Peer: j})
		}
	}
	return out
}

// NetStats counts the simulated network's traffic, injected faults and
// virtual latency.  The notification plane's own counters are per host, in
// GossipStatsFor.
type NetStats = simnet.Stats

// NetworkStats returns the simulated network's counters.
func (c *Cluster) NetworkStats() NetStats { return c.net.Stats() }

// ResetNetworkStats zeroes the network's counters.
func (c *Cluster) ResetNetworkStats() { c.net.ResetStats() }

// Volume names a Ficus volume.
type Volume struct {
	h ids.VolumeHandle
}

// String renders the volume handle.
func (v Volume) String() string { return v.h.String() }

// NewVolume creates a fresh volume with its first replica on host i, on a
// disk of its own sized like the cluster's (WithStorage).
func (c *Cluster) NewVolume(host int) (Volume, error) {
	vol, rid, err := c.hosts[host].CreateVolume(c.storage)
	if err != nil {
		return Volume{}, err
	}
	v := Volume{h: vol}
	c.volumes[v] = []core.ReplicaLoc{{ID: rid, Addr: hostName(host)}}
	c.nextRep[v] = rid + 1
	return v, nil
}

// ReplicateVolume adds a replica of vol on host i, on a disk of its own sized
// like the cluster's (WithStorage), seeded from an existing replica (which
// must be reachable — §3.1 allows changing the replica set "whenever a file
// replica is available").
func (c *Cluster) ReplicateVolume(vol Volume, host int) error {
	if err := c.addReplica(vol, host); err != nil {
		return err
	}
	c.setLocations(vol)
	return nil
}

// addReplica seeds a replica of vol on host from vol's first replica and
// records its location; the hosts' location tables are left to setLocations.
func (c *Cluster) addReplica(vol Volume, host int) error {
	locs := c.volumes[vol]
	if len(locs) == 0 {
		return fmt.Errorf("ficus: unknown volume %v", vol)
	}
	rid := c.nextRep[vol]
	if err := c.hosts[host].AddReplica(vol.h, rid, locs[0], c.storage); err != nil {
		return err
	}
	c.nextRep[vol] = rid + 1
	c.volumes[vol] = append(locs, core.ReplicaLoc{ID: rid, Addr: hostName(host)})
	return nil
}

// setLocations tells every host where vol's replicas live.
func (c *Cluster) setLocations(vol Volume) {
	for _, h := range c.hosts {
		h.SetLocations(vol.h, c.volumes[vol])
	}
}

// DropReplica removes host i's replica of vol and updates every host's
// location table.  At least one replica must remain ("a client may change
// the location and quantity of file replicas whenever a file replica is
// available", §3.1).
func (c *Cluster) DropReplica(vol Volume, host int) error {
	locs := c.volumes[vol]
	if len(locs) == 0 {
		return fmt.Errorf("ficus: unknown volume %v", vol)
	}
	if len(locs) == 1 {
		return fmt.Errorf("ficus: refusing to drop the last replica of %v", vol)
	}
	addr := hostName(host)
	idx := -1
	for i, l := range locs {
		if l.Addr == addr {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("ficus: host %d stores no replica of %v", host, vol)
	}
	rid := locs[idx].ID
	vr := volumeReplicaHandle(vol, rid)
	if err := c.hosts[host].RemoveReplica(vr); err != nil {
		return err
	}
	c.volumes[vol] = append(locs[:idx:idx], locs[idx+1:]...)
	for i := range c.hosts {
		c.hosts[i].ForgetLocation(vol.h, rid)
		c.hosts[i].SetLocations(vol.h, c.volumes[vol])
	}
	return nil
}

func volumeReplicaHandle(vol Volume, rid ids.ReplicaID) ids.VolumeReplicaHandle {
	return ids.VolumeReplicaHandle{Vol: vol.h, Replica: rid}
}

// Graft creates a graft point named name in directory dirPath of the root
// volume (on host i's replica), targeting vol.  Other hosts learn of it
// through normal directory reconciliation, and autograft the volume the
// first time a pathname walks through it (§4.4).
func (c *Cluster) Graft(host int, dirPath, name string, vol Volume) error {
	locs := c.volumes[vol]
	if len(locs) == 0 {
		return fmt.Errorf("ficus: unknown volume %v", vol)
	}
	return c.hosts[host].CreateGraftPoint(c.root, dirPath, name, vol.h, locs)
}

// Mount returns a path-based view of the root volume from host i, using the
// cluster's default policy.
func (c *Cluster) Mount(host int) (*Mount, error) {
	return c.MountVolume(host, c.RootVolume())
}

// MountVolume mounts an arbitrary volume from host i.
func (c *Cluster) MountVolume(host int, vol Volume) (*Mount, error) {
	return c.mountVol(host, vol, c.policy)
}

func (c *Cluster) mountVol(host int, vol Volume, p Policy) (*Mount, error) {
	if locs, ok := c.volumes[vol]; ok {
		c.hosts[host].SetLocations(vol.h, locs)
	}
	lay, err := c.hosts[host].Mount(vol.h, p)
	if err != nil {
		return nil, err
	}
	root, err := lay.Root()
	if err != nil {
		return nil, err
	}
	return &Mount{root: root}, nil
}
