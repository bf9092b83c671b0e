package core

// Epidemic update notification (the gossip plane).  The paper sends one
// best-effort datagram per update to every replica (§2.5) — an O(n) burst
// per origin that stops scaling past a handful of hosts.  Here the origin
// can instead send each new-version notice to a fanout-k sample of that
// volume's replica set, and every first-time receiver relays it to its own
// k-sample with a decrementing hop budget, so per-origin cost is O(k) and
// network-wide cost is O(n·k) spread across the cluster, while k independent
// arrival paths per host tolerate per-link loss and crashed relayers.
// Notifications remain pure hints: a rumor that dies in a partition is
// repaired by the anti-entropy scheduler (recon.Scheduler), never missed
// permanently.
//
// Determinism: there is no RNG anywhere in the plane.  Relay targets come
// from rendezvous hashing — every candidate is scored by a splitmix64-style
// hash of (rumor id, relayer address, candidate address) and the k smallest
// scores win — so the dissemination tree of a given rumor is a pure function
// of the rumor id and the replica set, reproducible across runs and
// independent of map iteration or goroutine timing.
//
// Duplicate suppression keys on the rumor id (Src, Seq): Src is the host
// whose notifier announced the update and Seq its per-host counter, together
// standing in for the (origin, version-vector) identity of the new version —
// the notifier fires once per completed update, so distinct updates get
// distinct ids while duplicate and re-ordered deliveries of the same rumor
// share one.  A suppressed rumor feeds no new-version cache and is not
// relayed, which both caps the epidemic and keeps the NVC's Seen counter at
// first-seen semantics under at-least-once links.

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/ids"
	"repro/internal/simnet"
)

// defaultSuppressionCap bounds the per-host seen-rumor cache (FIFO
// eviction).
const defaultSuppressionCap = 8192

// GossipConfig tunes a host's epidemic notification plane and its
// anti-entropy scheduling budget.  The zero value is the paper's scheme: an
// update is announced to every other replica holder directly, nobody relays,
// and reconciliation sweeps every known peer each pass.
type GossipConfig struct {
	// Fanout is how many replica-holder hosts a rumor is sent to at each
	// step (origination and relay).  0 = every holder.
	Fanout int
	// TTL is the relay hop budget: a rumor is forwarded by receivers until
	// its budget is exhausted.  0 means direct fanout only, no relay.
	// Coverage needs roughly log_Fanout(n) hops plus slack for overlap.
	TTL int
	// ReconPeers caps how many peers one reconciliation pass visits per
	// volume, in the anti-entropy scheduler's priority order.  0 = every
	// known peer.
	ReconPeers int
}

// GossipStats counts a host's update-notification activity: the rumors it
// sends and receives, and what they fed into its new-version caches.
type GossipStats struct {
	RumorsOriginated  uint64 // updates announced by this host's notifier
	NoticesSent       uint64 // datagrams sent originating those rumors
	RumorsRelayed     uint64 // datagrams sent relaying others' rumors
	RumorsAccepted    uint64 // first-seen rumors fed into local caches
	RumorsSuppressed  uint64 // duplicate rumors dropped by the seen-cache
	RumorsForeign     uint64 // rumors for volumes this host stores no replica of
	RumorsExpired     uint64 // rumors accepted with an exhausted hop budget
	NotificationsSeen uint64 // new-version cache feeds, one per local replica told
	NotifyCodecErrors uint64 // datagrams dropped because they failed to decode
}

// Add accumulates (aggregation across hosts).
func (s *GossipStats) Add(t GossipStats) {
	s.RumorsOriginated += t.RumorsOriginated
	s.NoticesSent += t.NoticesSent
	s.RumorsRelayed += t.RumorsRelayed
	s.RumorsAccepted += t.RumorsAccepted
	s.RumorsSuppressed += t.RumorsSuppressed
	s.RumorsForeign += t.RumorsForeign
	s.RumorsExpired += t.RumorsExpired
	s.NotificationsSeen += t.NotificationsSeen
	s.NotifyCodecErrors += t.NotifyCodecErrors
}

// rumorKey identifies one rumor for duplicate suppression.
type rumorKey struct {
	src simnet.Addr
	seq uint64
}

// ConfigureGossip installs the gossip/scheduler settings; they govern every
// subsequent update announcement and reconciliation pass.  Like the
// slow-peer settings this is kernel configuration, so it survives a crash.
// TTL is clamped here, once, to what a notification's one-byte Hops field
// carries, so the notifier's stamp can neither wrap a large budget to zero
// nor a negative one to 255.
func (h *Host) ConfigureGossip(cfg GossipConfig) {
	cfg.TTL = min(max(cfg.TTL, 0), math.MaxUint8)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gossip = cfg
}

// GossipSettings returns the host's current gossip configuration.
func (h *Host) GossipSettings() GossipConfig {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gossip
}

// GossipStats returns the host's accumulated notification-plane counters.
func (h *Host) GossipStats() GossipStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.gstats
}

// markRumorLocked records a rumor id in the seen-cache, reporting whether it
// was new.  The cache is FIFO-bounded; eviction only ever risks re-accepting
// a very old rumor, which the new-version cache coalesces harmlessly.
func (h *Host) markRumorLocked(k rumorKey) bool {
	if _, ok := h.gossipSeen[k]; ok {
		return false
	}
	for len(h.gossipSeen) >= defaultSuppressionCap && len(h.gossipFIFO) > 0 {
		delete(h.gossipSeen, h.gossipFIFO[0])
		h.gossipFIFO = h.gossipFIFO[1:]
	}
	h.gossipSeen[k] = struct{}{}
	h.gossipFIFO = append(h.gossipFIFO, k)
	return true
}

// mix64 is the splitmix64 finalizer (the same mixer simnet's per-link RNG
// seeds with): a cheap, well-distributed hash for rendezvous scoring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// addrHash folds a host address into a 64-bit value (FNV-1a).
func addrHash(a simnet.Addr) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(a) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// rumorHash folds a rumor id into the rendezvous key.
func rumorHash(src simnet.Addr, seq uint64) uint64 {
	return mix64(addrHash(src) ^ mix64(seq))
}

// gossipPickLocked chooses the fanout sample for one rumor step: the k
// replica-holder hosts of vol (excluding excl) with the smallest rendezvous
// scores under (rumor, this relayer), or all of them when k <= 0.  Only
// addresses in the volume's location table are candidates — the
// partial-replica-set property: rumors for a volume travel exclusively among
// the hosts storing it.
func (h *Host) gossipPickLocked(vol ids.VolumeHandle, rumor uint64, excl map[simnet.Addr]bool, k int) []simnet.Addr {
	locs := h.locations[vol]
	var cands []simnet.Addr // made at the first candidate: a volume with no other holder allocates nothing
	for _, l := range locs {
		if excl[l.Addr] {
			continue
		}
		if cands == nil {
			cands = make([]simnet.Addr, 0, len(locs))
		}
		cands = append(cands, l.Addr)
	}
	if len(cands) == 0 {
		return nil
	}
	self := addrHash(h.addr)
	scoreOf := func(a simnet.Addr) uint64 { return mix64(rumor ^ self ^ addrHash(a)) }
	slices.SortFunc(cands, func(a, b simnet.Addr) int {
		if c := cmp.Compare(scoreOf(a), scoreOf(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// A host holding two replicas of vol is listed twice; its copies share a
	// score, so they sit side by side.
	cands = slices.Compact(cands)
	if k > 0 && k < len(cands) {
		cands = cands[:k]
	}
	// Deterministic send order by address (the scores are already
	// deterministic; sorting by address keeps wire traces readable).
	slices.Sort(cands)
	return cands
}

// PeerPriority is one entry of a host's anti-entropy plan: the order the
// scheduler would visit the volume's peers in right now.
type PeerPriority struct {
	Replica     ids.ReplicaID
	Addr        simnet.Addr
	Health      string
	LastSync    uint64 // daemon tick of the last clean pass (0 = never)
	LastAttempt uint64 // daemon tick of the last attempt (0 = never)
	Score       uint64 // effective staleness driving the order
}

// AntiEntropyPlan reports the scheduler's current priority order over vol's
// remote peers, highest priority first — what the next ReconcileOnce pass
// would visit (truncated to ReconPeers if a budget is configured).
func (h *Host) AntiEntropyPlan(vol ids.VolumeHandle) []PeerPriority {
	s, peers := h.schedPeers(vol, h.LocalReplica(vol))
	order := h.sched.Order(vol, peers, s.tick)
	out := make([]PeerPriority, 0, len(order))
	for _, p := range order {
		i, _ := locIndex(s.locs, p.Replica)
		out = append(out, PeerPriority{
			Replica:     p.Replica,
			Addr:        s.locs[i].Addr,
			Health:      p.Health.String(),
			LastSync:    p.LastSync,
			LastAttempt: p.LastAttempt,
			Score:       p.Score,
		})
	}
	return out
}
