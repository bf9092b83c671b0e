package ficus

// The counted experiments of EXPERIMENTS.md that need a whole cluster, as
// assertions: E10 (one batched pull per origin), E13 (block deltas), E14
// (hedged pulls) and E15 (gossip notification).  Every count is
// deterministic per seed, so each is pinned exactly; bench/ times the same
// paths.  E2, E3, E5, E6, E8 and E9 are asserted in internal/exp, E4 in
// internal/avail and internal/baseline, E7 in internal/logical.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ids"
	"repro/internal/physical"
	"repro/internal/vnode"
	"repro/internal/workload"
)

// pullBed is the E10/E13 cluster: four hosts, where hosts 1..3 originate the
// files round-robin by writing straight to their physical replicas (no
// logical layer, no notifications), so the test controls exactly which
// replica originates every version, and host 0 propagates.
type pullBed struct {
	c        *Cluster
	layers   []*physical.Layer
	files    []pullFile
	contents func(name string, i, version int) []byte
}

type pullFile struct {
	name   string
	origin int
	fid    ids.FileID
}

const pullOrigins = 3

// newPullBed writes version 0 of nFiles files, then lets every host learn
// the namespace and drains every pending cache, so that a measured pass sees
// exactly the entries the test queues.
func newPullBed(t *testing.T, nFiles int, contents func(name string, i, version int) []byte, opts ...Option) *pullBed {
	t.Helper()
	b := &pullBed{c: newTestCluster(t, pullOrigins+1, opts...), contents: contents}
	for i := 0; i <= pullOrigins; i++ {
		b.layers = append(b.layers, b.c.Host(i).LocalReplicas()[0])
	}
	for i := 0; i < nFiles; i++ {
		origin := 1 + i%pullOrigins
		name := fmt.Sprintf("o%d-f%d", origin, i)
		root, err := b.layers[origin].Root()
		if err != nil {
			t.Fatal(err)
		}
		f, err := root.Create(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(f, contents(name, i, 0)); err != nil {
			t.Fatal(err)
		}
		a, err := f.Getattr()
		if err != nil {
			t.Fatal(err)
		}
		fid, err := ids.ParseFileID(a.FileID)
		if err != nil {
			t.Fatal(err)
		}
		b.files = append(b.files, pullFile{name: name, origin: origin, fid: fid})
	}
	if err := b.c.Settle(50); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= pullOrigins; i++ {
		if _, err := b.c.Host(i).PropagateOnce(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// pullPass is what one propagation pass on host 0 cost.
type pullPass struct {
	pulled          int
	rpcs, wireBytes uint64
	shipped, reused uint64 // blocks, summed over every host
}

func (b *pullBed) noteAll() {
	for _, f := range b.files {
		b.layers[0].NoteNewVersion(physical.RootPath(), f.fid, b.layers[f.origin].Replica())
	}
}

func (b *pullBed) blocks() (shipped, reused uint64) {
	for h := 0; h <= pullOrigins; h++ {
		s := b.c.BlockStatsFor(h)
		shipped += s.BlocksShipped
		reused += s.BlocksReused
	}
	return shipped, reused
}

// pass issues version 1 of every file at its origin, tells host 0, and
// measures one propagation pass there.  With dominated, host 0 first
// pulls every version and is told of them again, so that every entry of the
// measured pass is already local: it must pull nothing, ship no block and
// cost at most one RPC per origin.
func (b *pullBed) pass(t *testing.T, dominated bool) pullPass {
	t.Helper()
	for i, f := range b.files {
		root, err := b.layers[f.origin].Root()
		if err != nil {
			t.Fatal(err)
		}
		v, err := root.Lookup(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := vnode.WriteFile(v, b.contents(f.name, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	b.noteAll()
	if dominated {
		if _, err := b.c.Host(0).PropagateOnce(); err != nil {
			t.Fatal(err)
		}
		b.noteAll()
	}
	net0 := b.c.NetworkStats()
	shipped0, reused0 := b.blocks()
	stats, err := b.c.Host(0).PropagateOnce()
	if err != nil {
		t.Fatal(err)
	}
	net1 := b.c.NetworkStats()
	shipped1, reused1 := b.blocks()
	p := pullPass{
		pulled:    stats.FilesPulled,
		rpcs:      net1.RPCs - net0.RPCs,
		wireBytes: net1.RPCBytes - net0.RPCBytes,
		shipped:   shipped1 - shipped0,
		reused:    reused1 - reused0,
	}
	if dominated && (p.pulled != 0 || p.shipped != 0 || p.rpcs > pullOrigins) {
		t.Fatalf("all-dominated pass: %+v, want no pull, no block and <= %d RPCs", p, pullOrigins)
	}
	if !dominated && p.pulled != len(b.files) {
		t.Fatalf("pulled %d files, want %d", p.pulled, len(b.files))
	}
	if n := len(b.layers[0].PendingVersions()); n != 0 {
		t.Fatalf("%d entries still pending after the pass", n)
	}
	if probs, err := b.c.Fsck(); err != nil || len(probs) != 0 {
		t.Fatalf("fsck: %v %v", probs, err)
	}
	return p
}

// TestE10BatchPropagation: 256 pending entries over three origins cost host
// 0 one batched conditional pull per origin, whether every file must ship
// (fresh) or none (all-dominated).
func TestE10BatchPropagation(t *testing.T) {
	const nFiles = 256
	contents := func(name string, _, version int) []byte {
		if version == 0 {
			return []byte("seed " + name)
		}
		return []byte(name + " pass 0")
	}
	for _, tc := range []struct {
		name      string
		dominated bool
		want      pullPass
	}{
		{"fresh", false, pullPass{pulled: nFiles, rpcs: 3, wireBytes: 35642, shipped: nFiles}},
		{"all-dominated", true, pullPass{rpcs: 3, wireBytes: 21672}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newPullBed(t, nFiles, contents, WithSeed(42))
			if got := b.pass(t, tc.dominated); got != tc.want {
				t.Fatalf("pass %+v (%.1f wire B/file), want %+v", got, float64(got.wireBytes)/nFiles, tc.want)
			}
		})
	}
}

// TestE13DeltaPropagation: 128 files of 16 blocks over three origins.  An
// appended block is the only block that ships; a byte-identical rewrite
// (touch) bumps the version but every block dedups against the version it
// replaces; an all-dominated pass ships nothing.
func TestE13DeltaPropagation(t *testing.T) {
	const (
		nFiles     = 128
		baseBlocks = 16
		wlSeed     = 1313
		bs         = physical.ChecksumBlockSize
	)
	appendBlock := func(_ string, i, version int) []byte {
		return workload.AppendOneBlock(wlSeed, i, baseBlocks, version, bs)
	}
	touch := func(_ string, i, _ int) []byte {
		return workload.TouchMetadata(wlSeed, i, baseBlocks, 0, bs)
	}
	for _, tc := range []struct {
		name      string
		contents  func(name string, i, version int) []byte
		dominated bool
		want      pullPass
	}{
		{"append-one-block", appendBlock, false, pullPass{pulled: nFiles, rpcs: 3, wireBytes: 603947, shipped: nFiles, reused: nFiles * baseBlocks}},
		{"touch-metadata", touch, false, pullPass{pulled: nFiles, rpcs: 3, wireBytes: 77099, reused: nFiles * baseBlocks}},
		{"all-dominated", appendBlock, true, pullPass{rpcs: 3, wireBytes: 43691}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newPullBed(t, nFiles, tc.contents, WithSeed(42), WithStorage(65536, 16384))
			if got := b.pass(t, tc.dominated); got != tc.want {
				t.Fatalf("pass %+v (%.1f wire B/file), want %+v", got, float64(got.wireBytes)/nFiles, tc.want)
			}
		})
	}
}

// TestE14HedgedPulls: host 0 originates every version, host 2 pulls first
// over fast links and so always holds a fresh copy, and host 1's link to
// host 0 is slow with 400-tick spikes on a quarter of its legs.  Hedging
// issues a backup pull to host 2 once the primary passes 30 ticks, which
// cuts host 1's p99 pull from spike-sized to the threshold plus a fast round
// trip.  The ticks are virtual, so the percentiles are exact per seed.
func TestE14HedgedPulls(t *testing.T) {
	const rounds = 128
	for _, tc := range []struct {
		name     string
		hedge    uint64
		p50, p99 uint64
	}{
		{"hedged", 30, 40, 42},
		{"unhedged", 0, 95, 894},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 3, WithSeed(11))
			c.InjectFaults(FaultConfig{BaseTicks: 4, JitterTicks: 2})
			c.InjectLinkFaults(1, 0, FaultConfig{BaseTicks: 40, JitterTicks: 10, SpikeRate: 0.25, SpikeTicks: 400})
			m0, err := c.Mount(0)
			if err != nil {
				t.Fatal(err)
			}
			// Each of host 1's passes pulls from its one origin, host 0, so a
			// pass's makespan is that pull's effective latency.
			var ticks []uint64
			c.Host(1).ConfigureSlowPeers(SlowPeerConfig{HedgeAfter: tc.hedge})
			for r := 0; r < rounds; r++ {
				if err := m0.WriteFile(fmt.Sprintf("/e14-%d", r), []byte(fmt.Sprintf("tail %d", r))); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Host(2).PropagateOnce(); err != nil {
					t.Fatal(err)
				}
				s, err := c.Host(1).PropagateOnce()
				if err != nil {
					t.Fatal(err)
				}
				ticks = append(ticks, s.PassTicks)
			}
			if n := len(c.PendingVersionsFor(1)); n != 0 {
				t.Fatalf("%d entries still pending on host 1", n)
			}
			if probs, err := c.Fsck(); err != nil || len(probs) != 0 {
				t.Fatalf("fsck: %v %v", probs, err)
			}
			sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
			pct := func(p float64) uint64 { return ticks[int(p*float64(len(ticks)-1))] }
			if p50, p99 := pct(0.50), pct(0.99); p50 != tc.p50 || p99 != tc.p99 {
				t.Fatalf("p50/p99 pull ticks %d/%d over %d pulls, want %d/%d", p50, p99, len(ticks), tc.p50, tc.p99)
			}
		})
	}
}

// TestE15GossipScale: the same four updates on n hosts, once flat (the
// zero GossipConfig: the origin tells every other holder, §2.5) and once
// with gossip (fanout 3, TTL 6, four anti-entropy peers a pass).  The flat
// origin pays n-1 notices per rumor and the gossip origin its fanout, the
// relayers carrying the rest; either way one propagation and
// reconciliation pass makes every replica identical.
func TestE15GossipScale(t *testing.T) {
	const updates = 4
	for _, n := range []int{8, 32} {
		for _, tc := range []struct {
			name    string
			cfg     GossipConfig
			notices uint64 // per rumor, at the origin
		}{
			{"gossip", GossipConfig{Fanout: 3, TTL: 6, ReconPeers: 4}, 3},
			{"flat", GossipConfig{}, uint64(n - 1)},
		} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				c := newTestCluster(t, n, WithSeed(15), WithPolicy(FirstAvailable), WithStorage(4096, 512))
				c.ConfigureGossip(tc.cfg)
				// The writer mounts mid-cluster; FirstAvailable routes its
				// writes to the first replica, whose host originates every
				// rumor.
				m, err := c.Mount(n / 2)
				if err != nil {
					t.Fatal(err)
				}
				for u := 0; u < updates; u++ {
					if err := m.WriteFile(fmt.Sprintf("/e15-%d", u), []byte(fmt.Sprintf("u%d", u))); err != nil {
						t.Fatal(err)
					}
				}
				converged := func() bool {
					ref := treeOf(t, c, 0, false)
					for h := 1; h < n; h++ {
						if treeOf(t, c, h, false) != ref {
							return false
						}
					}
					return true
				}
				passes := 0
				for ; !converged(); passes++ {
					if passes == 64 {
						t.Fatal("not converged after 64 passes")
					}
					if _, err := c.Propagate(); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Reconcile(); err != nil {
						t.Fatal(err)
					}
				}
				var origin GossipStats
				for h := 0; h < n; h++ {
					if gs := c.GossipStatsFor(h); gs.RumorsOriginated > origin.RumorsOriginated {
						origin = gs
					}
				}
				// Each write of a new file advances two versions on this path,
				// each one rumor: the directory's create and the file's one write.
				if origin.RumorsOriginated != 2*updates || origin.NoticesSent != tc.notices*origin.RumorsOriginated || passes != 1 {
					t.Fatalf("origin sent %d notices for %d rumors, converged in %d passes; want %d rumors, %d notices a rumor, 1 pass",
						origin.NoticesSent, origin.RumorsOriginated, passes, 2*updates, tc.notices)
				}
			})
		}
	}
}
