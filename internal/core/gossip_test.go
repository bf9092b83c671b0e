package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// TestGossipPickDeterministic checks the rendezvous sample is a pure
// function of (rumor, relayer, replica set): stable across calls, bounded
// by k, drawn only from the volume's holders, and excluding the exclusions.
func TestGossipPickDeterministic(t *testing.T) {
	c := newCluster(t, 5)
	h := c.hosts[0]
	rumor := rumorHash(h.Addr(), 42)
	excl := map[simnet.Addr]bool{h.Addr(): true}

	h.mu.Lock()
	first := h.gossipPickLocked(c.vol, rumor, excl, 2)
	h.mu.Unlock()
	if len(first) != 2 {
		t.Fatalf("picked %d addrs, want 2", len(first))
	}
	holders := map[simnet.Addr]bool{}
	for i := 1; i < 5; i++ {
		holders[c.hosts[i].Addr()] = true
	}
	for _, a := range first {
		if !holders[a] {
			t.Fatalf("picked %q: excluded or not a holder", a)
		}
	}
	for i := 0; i < 10; i++ {
		h.mu.Lock()
		got := h.gossipPickLocked(c.vol, rumor, excl, 2)
		h.mu.Unlock()
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: pick %v != %v", i, got, first)
		}
	}
	// A different rumor id reshuffles (with 4 candidates choose 2, the odds
	// every one of 16 rumors lands on the same pair are negligible; this
	// guards against the score ignoring the rumor).
	varied := false
	for seq := uint64(0); seq < 16 && !varied; seq++ {
		h.mu.Lock()
		got := h.gossipPickLocked(c.vol, rumorHash(h.Addr(), 1000+seq), excl, 2)
		h.mu.Unlock()
		varied = !reflect.DeepEqual(got, first)
	}
	if !varied {
		t.Fatal("pick never varies with the rumor id")
	}
	// k larger than the candidate set returns everyone, sorted by address.
	h.mu.Lock()
	all := h.gossipPickLocked(c.vol, rumor, excl, 99)
	h.mu.Unlock()
	if len(all) != 4 {
		t.Fatalf("picked %d addrs with k=99, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("pick not address-sorted: %v", all)
		}
	}
}

// TestRumorSuppression checks first-seen semantics and FIFO eviction at the
// seen-rumor cap.
func TestRumorSuppression(t *testing.T) {
	c := newCluster(t, 1)
	h := c.hosts[0]
	const limit = defaultSuppressionCap

	k := func(seq uint64) rumorKey { return rumorKey{src: "x", seq: seq} }
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.markRumorLocked(k(1)) {
		t.Fatal("fresh rumor reported as duplicate")
	}
	if h.markRumorLocked(k(1)) {
		t.Fatal("duplicate rumor reported as fresh")
	}
	for seq := uint64(2); seq <= limit; seq++ {
		if !h.markRumorLocked(k(seq)) {
			t.Fatalf("rumor %d rejected below the cap", seq)
		}
	}
	// The cache is full: admitting one more evicts the oldest (seq 1),
	// nothing else.
	if !h.markRumorLocked(k(limit + 1)) {
		t.Fatalf("rumor %d rejected", limit+1)
	}
	if !h.markRumorLocked(k(1)) {
		t.Fatal("evicted rumor 1 still remembered")
	}
	if h.markRumorLocked(k(limit)) {
		t.Fatalf("rumor %d evicted too early", limit)
	}
	if len(h.gossipSeen) > limit || len(h.gossipFIFO) > limit {
		t.Fatalf("cache overflow: %d seen, %d fifo", len(h.gossipSeen), len(h.gossipFIFO))
	}
}

// TestGossipRelayReachesAll drives a real update through a fanout-1 relay
// chain: with 4 hosts, fanout 1 and TTL 3, the origin notifies one peer and
// relays must carry the rumor to the remaining two.  A TTL past the one-byte
// hop field (256) is clamped to 255, not wrapped to 0.
func TestGossipRelayReachesAll(t *testing.T) {
	for _, ttl := range []int{3, 256} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) { testGossipRelayReachesAll(t, ttl) })
	}
}

func testGossipRelayReachesAll(t *testing.T, ttl int) {
	c := newCluster(t, 4)
	for _, h := range c.hosts {
		h.ConfigureGossip(GossipConfig{Fanout: 1, TTL: ttl})
	}
	root := c.mount(t, 0)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if got := c.hosts[i].GossipStats().NotificationsSeen; got == 0 {
			t.Fatalf("host %d saw no notification through the relay chain", i)
		}
	}
	gs := c.hosts[0].GossipStats()
	if gs.RumorsOriginated == 0 {
		t.Fatal("origin recorded no rumor")
	}
	if gs.NoticesSent == 0 || gs.NoticesSent > gs.RumorsOriginated {
		t.Fatalf("origin sent %d notices for %d rumors with fanout 1",
			gs.NoticesSent, gs.RumorsOriginated)
	}
	var relayed uint64
	for _, h := range c.hosts {
		relayed += h.GossipStats().RumorsRelayed
	}
	if relayed == 0 {
		t.Fatal("no host relayed anything")
	}
}

// TestGossipTTLZeroNoRelay: TTL 0 means direct fanout only — receivers
// record the expired budget and relay nothing.  A negative TTL is clamped to
// 0, not wrapped to 255.
func TestGossipTTLZeroNoRelay(t *testing.T) {
	for _, ttl := range []int{0, -1} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) { testGossipTTLZeroNoRelay(t, ttl) })
	}
}

func testGossipTTLZeroNoRelay(t *testing.T, ttl int) {
	c := newCluster(t, 4)
	for _, h := range c.hosts {
		h.ConfigureGossip(GossipConfig{Fanout: 1, TTL: ttl})
	}
	root := c.mount(t, 0)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("x")); err != nil {
		t.Fatal(err)
	}
	var relayed, expired, accepted uint64
	for _, h := range c.hosts {
		gs := h.GossipStats()
		relayed += gs.RumorsRelayed
		expired += gs.RumorsExpired
		accepted += gs.RumorsAccepted
	}
	if relayed != 0 {
		t.Fatalf("relayed %d rumors with TTL 0", relayed)
	}
	if expired == 0 || accepted == 0 {
		t.Fatalf("expired=%d accepted=%d, want both > 0", expired, accepted)
	}
}

// TestGossipDuplicateSuppressedOnWire injects the same rumor three times: the
// later copies must bump the suppression counter and leave the notification
// count at first-seen — under a sampled fanout and under GossipConfig{} (every
// holder, no relay) alike, because there is one notification path.
func TestGossipDuplicateSuppressedOnWire(t *testing.T) {
	for _, cfg := range []GossipConfig{{Fanout: 1, TTL: 2}, {}} {
		c := newCluster(t, 2)
		h0, h1 := c.hosts[0], c.hosts[1]
		h1.ConfigureGossip(cfg)

		msg := notifyMsg{
			Vol:    c.vol,
			File:   ids.FileID{Issuer: 1, Seq: 5},
			Origin: 1,
			Src:    h0.Addr(),
			Seq:    77,
			Hops:   2,
		}
		payload := encodeNotify(&msg)
		for i := 0; i < 3; i++ {
			h0.SimHost().Multicast(NotifyPort, payload, []simnet.Addr{h1.Addr()})
		}
		if got := h1.GossipStats().NotificationsSeen; got != 1 {
			t.Fatalf("%+v: NotificationsSeen = %d after 3 copies, want 1", cfg, got)
		}
		gs := h1.GossipStats()
		if gs.RumorsAccepted != 1 || gs.RumorsSuppressed != 2 {
			t.Fatalf("%+v: accepted=%d suppressed=%d, want 1/2", cfg, gs.RumorsAccepted, gs.RumorsSuppressed)
		}
	}
}

// TestNotifyEveryHolderNoSelfDatagram: under GossipConfig{} an update is
// announced with one stamped datagram to every OTHER holder, which accepts it
// and relays nothing; the announcing host feeds its own replicas directly, so
// a 1-host cluster puts nothing on the wire.
func TestNotifyEveryHolderNoSelfDatagram(t *testing.T) {
	for _, n := range []int{1, 4} {
		c := newCluster(t, n)
		root := c.mount(t, 0)
		c.net.ResetStats()
		f, err := root.Create("f", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, []byte("x")); err != nil {
			t.Fatal(err)
		}
		gs := c.hosts[0].GossipStats()
		if gs.RumorsOriginated == 0 || gs.NoticesSent != gs.RumorsOriginated*uint64(n-1) {
			t.Fatalf("n=%d: %d notices for %d rumors, want one per other holder", n, gs.NoticesSent, gs.RumorsOriginated)
		}
		if got := c.net.Stats().Datagrams; got != gs.NoticesSent {
			t.Fatalf("n=%d: %d datagrams on the wire, want the %d notices (none to self, none relayed)", n, got, gs.NoticesSent)
		}
		for i := 1; i < n; i++ {
			g := c.hosts[i].GossipStats()
			if g.RumorsAccepted != gs.RumorsOriginated || g.RumorsRelayed != 0 || g.NotificationsSeen == 0 {
				t.Fatalf("n=%d host %d: %+v", n, i, g)
			}
		}
	}
}

// TestGossipForeignVolumeDropped: a rumor for a volume this host stores no
// replica of is dropped and counted, feeding no cache and relaying nothing.
func TestGossipForeignVolumeDropped(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.hosts[0], c.hosts[1]
	h1.ConfigureGossip(GossipConfig{Fanout: 1, TTL: 2})

	// A volume only h0 stores.
	vol2, _, err := h0.CreateVolume(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := notifyMsg{
		Vol:    vol2,
		File:   ids.FileID{Issuer: 1, Seq: 1},
		Origin: 1,
		Src:    h0.Addr(),
		Seq:    9,
		Hops:   2,
	}
	h0.SimHost().Multicast(NotifyPort, encodeNotify(&msg), []simnet.Addr{h1.Addr()})
	gs := h1.GossipStats()
	if gs.RumorsForeign != 1 || gs.RumorsAccepted != 0 || gs.RumorsRelayed != 0 {
		t.Fatalf("foreign=%d accepted=%d relayed=%d, want 1/0/0",
			gs.RumorsForeign, gs.RumorsAccepted, gs.RumorsRelayed)
	}
	if got := h1.GossipStats().NotificationsSeen; got != 0 {
		t.Fatalf("NotificationsSeen = %d for foreign rumor, want 0", got)
	}
}

// TestGossipCrashClearsSeenCache: the seen-rumor cache dies with the kernel,
// so a post-restart replay of an old rumor is accepted again: it feeds the
// new-version cache, which the crash emptied too, instead of being dropped
// by the wire filter.
func TestGossipCrashClearsSeenCache(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.hosts[0], c.hosts[1]
	h1.ConfigureGossip(GossipConfig{Fanout: 1, TTL: 1})

	msg := notifyMsg{
		Vol:    c.vol,
		File:   ids.FileID{Issuer: 1, Seq: 5},
		Origin: 1,
		Src:    h0.Addr(),
		Seq:    3,
		Hops:   1,
	}
	payload := encodeNotify(&msg)
	h0.SimHost().Multicast(NotifyPort, payload, []simnet.Addr{h1.Addr()})
	if gs := h1.GossipStats(); gs.RumorsAccepted != 1 {
		t.Fatalf("accepted=%d, want 1", gs.RumorsAccepted)
	}
	h1.Crash()
	if err := h1.Restart(); err != nil {
		t.Fatal(err)
	}
	h0.SimHost().Multicast(NotifyPort, payload, []simnet.Addr{h1.Addr()})
	if gs := h1.GossipStats(); gs.RumorsAccepted != 2 || gs.RumorsSuppressed != 0 {
		t.Fatalf("after restart accepted=%d suppressed=%d, want 2/0",
			gs.RumorsAccepted, gs.RumorsSuppressed)
	}
}
