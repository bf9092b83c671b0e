package ficus

// Benchmark suite regenerating the paper's evaluation, one benchmark per
// experiment row of DESIGN.md §4 (E1–E9).  Counting-based results (I/Os,
// RPCs, pulls) are attached as custom b.ReportMetric metrics; timing-based
// results are the usual ns/op.  EXPERIMENTS.md records paper-claim vs
// measured for every row.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/avail"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/ids"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/recon"
	"repro/internal/retry"
	"repro/internal/vnode"
	"repro/internal/workload"
)

// BenchmarkE1StackComposition times the same lookup+getattr operation
// through each stack shape of paper Figures 1–2: bare UFS, the co-resident
// Ficus stack (NFS elided), the NFS-interposed stack, and the two-replica
// stack.
func BenchmarkE1StackComposition(b *testing.B) {
	for _, kind := range []exp.StackKind{exp.StackUFS, exp.StackFicusLocal, exp.StackFicusLocalCached, exp.StackFicusNFS, exp.StackFicusTwoRepl} {
		b.Run(kind.String(), func(b *testing.B) {
			root, err := exp.BuildStack(kind)
			if err != nil {
				b.Fatal(err)
			}
			if err := exp.PrepareFile(root); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := exp.TouchOp(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2LayerCrossing times the operation through 0..8 interposed
// null layers; the per-layer increment is the paper's §6 "one additional
// procedure call, one pointer indirection, and storage for another vnode
// block".
func BenchmarkE2LayerCrossing(b *testing.B) {
	for _, depth := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nulls=%d", depth), func(b *testing.B) {
			root, err := exp.BuildNullStack(depth)
			if err != nil {
				b.Fatal(err)
			}
			if err := exp.PrepareFile(root); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := exp.TouchOp(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3OpenIOs reports the §6 disk I/O accounting: extra reads on a
// cold-directory open (paper: 4) and on a warm open (paper: 0), with the
// cache-disabled ablation.
func BenchmarkE3OpenIOs(b *testing.B) {
	for _, caches := range []bool{true, false} {
		name := "caches-on"
		if !caches {
			name = "caches-off"
		}
		b.Run(name, func(b *testing.B) {
			var r exp.OpenIOResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = exp.OpenIOCounts(caches)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.ColdDelta()), "extraIOs/cold-open")
			b.ReportMetric(float64(r.WarmDelta()), "extraIOs/warm-open")
			b.ReportMetric(float64(r.FicusColdReads), "ficus-reads/cold-open")
			b.ReportMetric(float64(r.UFSColdReads), "ufs-reads/cold-open")
		})
	}
}

// BenchmarkE4Availability sweeps replica counts and outage models through
// every replica-control policy; the reported metrics are read/update
// availability.  The paper's claim: one-copy availability strictly
// dominates.
func BenchmarkE4Availability(b *testing.B) {
	for _, model := range []avail.Model{avail.HostFailures, avail.Partitions} {
		for _, n := range []int{3, 5} {
			policies := baseline.StandardSet(n)
			s := avail.Scenario{
				Replicas: n, Model: model, FailProb: 0.2, Segments: 3,
				Trials: 20000, Seed: 42,
			}
			var results []avail.Result
			b.Run(fmt.Sprintf("%v/n=%d", model, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					results = avail.Evaluate(s, policies)
				}
				for i, r := range results {
					b.ReportMetric(r.UpdateAvail, fmt.Sprintf("updAvail/p%d", i))
				}
				b.ReportMetric(results[0].UpdateAvail-results[3].UpdateAvail, "oneCopyMinusMajority")
			})
		}
	}
}

// BenchmarkE5PropagationPolicy compares immediate vs delayed update
// propagation under the bursty workload of §3.2.
func BenchmarkE5PropagationPolicy(b *testing.B) {
	cfg := exp.DefaultPropagationConfig()
	run := func(b *testing.B, period int, label string) {
		var row exp.PropagationRow
		var err error
		for i := 0; i < b.N; i++ {
			row, err = exp.RunPropagation(cfg, period, label)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(row.Pulls), "pulls")
		b.ReportMetric(float64(row.RPCBytes), "rpcBytes")
		b.ReportMetric(float64(row.Staleness), "staleness")
	}
	b.Run("immediate", func(b *testing.B) { run(b, 1, "immediate") })
	b.Run("delayed", func(b *testing.B) { run(b, cfg.Delay, "delayed") })
}

// BenchmarkE6Reconciliation times the full partition-churn-heal-reconcile
// cycle and reports the convergence work.
func BenchmarkE6Reconciliation(b *testing.B) {
	for _, hosts := range []int{2, 4} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			var res exp.ReconcileResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = exp.RunReconcileChurn(hosts, 9, 7)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("did not converge")
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.EntriesAdopted), "entriesAdopted")
			b.ReportMetric(float64(res.FilesPulled), "filesPulled")
			b.ReportMetric(float64(res.FileConflicts), "fileConflicts")
		})
	}
}

// BenchmarkE7OpenOverLookup times opens shipped through the lookup
// encoding across NFS (the §2.3 workaround) against plain lookups on the
// same stack, and reports the name-budget arithmetic.
func BenchmarkE7OpenOverLookup(b *testing.B) {
	root, err := exp.BuildStack(exp.StackFicusNFS)
	if err != nil {
		b.Fatal(err)
	}
	if err := exp.PrepareFile(root); err != nil {
		b.Fatal(err)
	}
	f, err := vnode.Walk(root, "dir/file")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("open+close", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.Open(vnode.OpenRead); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(vnode.OpenRead); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(MaxName), "maxNameBytes")
		b.ReportMetric(255-float64(MaxName), "encodingOverheadBytes")
	})
	b.Run("plain-lookup", func(b *testing.B) {
		d, err := vnode.Walk(root, "dir")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := d.Lookup("file"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8ShadowCommit reports write amplification of the single-file
// atomic commit for point updates to files of growing size (§3.2 fn5).
func BenchmarkE8ShadowCommit(b *testing.B) {
	for _, nb := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("blocks=%d", nb), func(b *testing.B) {
			var rows []exp.ShadowRow
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = exp.ShadowCommitCost([]int{nb})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows[0].InPlaceWrites), "writes/in-place")
			b.ReportMetric(float64(rows[0].ShadowWrites), "writes/shadow-commit")
		})
	}
}

// BenchmarkE9Autograft reports the RPC cost of autografting: first walk
// (locate+graft), warm walk (graft-table hit) and regraft after pruning.
func BenchmarkE9Autograft(b *testing.B) {
	var res exp.AutograftResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.RunAutograft()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FirstWalkRPCs), "rpcs/first-walk")
	b.ReportMetric(float64(res.WarmWalkRPCs), "rpcs/warm-walk")
	b.ReportMetric(float64(res.RegraftRPCs), "rpcs/regraft")
}

// BenchmarkEndToEndWriteRead is an overall sanity benchmark of the public
// API on a 3-host cluster.
func BenchmarkEndToEndWriteRead(b *testing.B) {
	c, err := NewCluster(3, WithPolicy(logical.FirstAvailable))
	if err != nil {
		b.Fatal(err)
	}
	m, err := c.Mount(0)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench-%d", i%64)
		if err := m.WriteFile(path, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := m.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWrite writes name=data directly on a replica's physical layer (no
// logical layer, no notifications), returning the FileID — the benchmark
// controls exactly which replica originates every version.
func benchWrite(b *testing.B, l *physical.Layer, name, data string) ids.FileID {
	b.Helper()
	root, err := l.Root()
	if err != nil {
		b.Fatal(err)
	}
	f, err := root.Create(name, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte(data)); err != nil {
		b.Fatal(err)
	}
	a, err := f.Getattr()
	if err != nil {
		b.Fatal(err)
	}
	fid, err := ids.ParseFileID(a.FileID)
	if err != nil {
		b.Fatal(err)
	}
	return fid
}

// BenchmarkE10BatchPropagation measures the conditional-pull propagation
// pipeline on a 4-host cluster with 256 pending entries spread over 3
// origins.  (The sequential two-RPCs-per-file pipeline it replaced lives on
// as the recorded sequential/fresh row of EXPERIMENTS.md E10.)
//
//   - batch/fresh:         every entry dominated remotely — data must ship;
//     one pull RPC per origin.
//   - batch/all-dominated:  every entry already local — the pass costs at
//     most one RPC per origin and ships no file bytes.
func BenchmarkE10BatchPropagation(b *testing.B) {
	const nFiles = 256
	const nOrigins = 3 // hosts 1..3 originate; host 0 propagates

	type fileRef struct {
		name   string
		origin int // host index
		fid    ids.FileID
	}

	setup := func(b *testing.B) (*Cluster, []*physical.Layer, []fileRef) {
		c, err := NewCluster(nOrigins+1, WithSeed(42))
		if err != nil {
			b.Fatal(err)
		}
		layers := make([]*physical.Layer, nOrigins+1)
		for i := range layers {
			layers[i] = c.Host(i).LocalReplicas()[0]
		}
		files := make([]fileRef, nFiles)
		for i := range files {
			origin := 1 + i%nOrigins
			name := fmt.Sprintf("o%d-f%d", origin, i)
			fid := benchWrite(b, layers[origin], name, fmt.Sprintf("seed %s", name))
			files[i] = fileRef{name: name, origin: origin, fid: fid}
		}
		// Everybody learns the namespace, then all pending caches drain so
		// the measured passes see exactly the workload we queue.
		if err := c.Settle(50); err != nil {
			b.Fatal(err)
		}
		for i := 0; i <= nOrigins; i++ {
			if _, err := c.Host(i).PropagateOnce(); err != nil {
				b.Fatal(err)
			}
		}
		return c, layers, files
	}

	// rewriteAll makes every origin issue a new version of each of its
	// files and queues the notifications on host 0's pending cache.
	rewriteAll := func(b *testing.B, layers []*physical.Layer, files []fileRef, pass int) {
		for _, f := range files {
			l := layers[f.origin]
			root, err := l.Root()
			if err != nil {
				b.Fatal(err)
			}
			vn, err := root.Lookup(f.name)
			if err != nil {
				b.Fatal(err)
			}
			if err := vnode.WriteFile(vn, []byte(fmt.Sprintf("%s pass %d", f.name, pass))); err != nil {
				b.Fatal(err)
			}
			layers[0].NoteNewVersion(physical.RootPath(), f.fid, l.Replica())
		}
	}
	noteAll := func(layers []*physical.Layer, files []fileRef) {
		for _, f := range files {
			layers[0].NoteNewVersion(physical.RootPath(), f.fid, layers[f.origin].Replica())
		}
	}

	run := func(b *testing.B, cfg recon.PropagateConfig, prePulled bool) {
		c, layers, files := setup(b)
		var rpcs, wireBytes uint64
		var pulled uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rewriteAll(b, layers, files, i)
			if prePulled {
				// Pull everything up front, then re-announce: every entry
				// in the measured pass is already dominated locally.
				if _, err := c.Host(0).PropagateOnce(); err != nil {
					b.Fatal(err)
				}
				noteAll(layers, files)
			}
			before := c.NetworkStats()
			b.StartTimer()
			stats, err := c.Host(0).PropagateOnceCfg(cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			after := c.NetworkStats()
			rpcs += after.RPCs - before.RPCs
			wireBytes += after.RPCBytes - before.RPCBytes
			pulled += uint64(stats.FilesPulled)
			if prePulled {
				if stats.FilesPulled != 0 {
					b.Fatalf("all-dominated pass pulled %d files", stats.FilesPulled)
				}
				if got := after.RPCs - before.RPCs; got > nOrigins {
					b.Fatalf("all-dominated pass cost %d RPCs, want <= 1 per origin (%d)", got, nOrigins)
				}
			} else if stats.FilesPulled != nFiles {
				b.Fatalf("pulled %d files, want %d", stats.FilesPulled, nFiles)
			}
			if n := len(layers[0].PendingVersions()); n != 0 {
				b.Fatalf("%d entries still pending after pass", n)
			}
			b.StartTimer()
		}
		b.StopTimer()
		n := float64(b.N)
		b.ReportMetric(float64(rpcs)/n, "rpcs/pass")
		b.ReportMetric(float64(rpcs)/n/nFiles, "rpcs/file")
		b.ReportMetric(float64(rpcs)/n/nOrigins, "rpcs/origin")
		b.ReportMetric(float64(wireBytes)/n/nFiles, "wireBytes/file")
		b.ReportMetric(float64(pulled)/n, "filesPulled/pass")
	}

	batchCfg := recon.PropagateConfig{Policy: retry.Default()}
	b.Run("batch/fresh", func(b *testing.B) { run(b, batchCfg, false) })
	b.Run("batch/all-dominated", func(b *testing.B) { run(b, batchCfg, true) })
}

// BenchmarkE13DeltaPropagation measures the content-addressed block-delta
// propagation path on a 4-host cluster: 128 files of 16 data blocks each,
// three origin hosts, host 0 propagating.  (The whole-file pass the
// wireBytes/file reduction is quoted against lives on as the recorded
// whole/append-one-block row of EXPERIMENTS.md E13.)
//
//   - delta/append-one-block:  each pass appends one 4 KiB block to every
//     file; only that block should cross the wire.
//   - delta/touch-metadata:    each pass rewrites every file byte-for-byte
//     (the version bumps, the data does not); every block dedups and the
//     pass ships no block data at all.
//   - delta/all-dominated:     every entry already pulled — the pass must
//     ship zero blocks and zero file bytes.
//
// Reported metrics: wireBytes/file (total RPC bytes over files), blocks
// shipped and reused per pass, and the dedup hit-rate
// reused/(reused+shipped).
func BenchmarkE13DeltaPropagation(b *testing.B) {
	const (
		nFiles     = 128
		nOrigins   = 3
		baseBlocks = 16
		wlSeed     = 1313
		bs         = physical.ChecksumBlockSize
	)

	type fileRef struct {
		name   string
		origin int
		fid    ids.FileID
	}

	setup := func(b *testing.B) (*Cluster, []*physical.Layer, []fileRef) {
		c, err := NewCluster(nOrigins+1, WithSeed(42), WithStorage(65536, 16384))
		if err != nil {
			b.Fatal(err)
		}
		layers := make([]*physical.Layer, nOrigins+1)
		for i := range layers {
			layers[i] = c.Host(i).LocalReplicas()[0]
		}
		files := make([]fileRef, nFiles)
		for i := range files {
			origin := 1 + i%nOrigins
			name := fmt.Sprintf("d%d-f%d", origin, i)
			data := workload.AppendOneBlock(wlSeed, i, baseBlocks, 0, bs)
			fid := benchWrite(b, layers[origin], name, string(data))
			files[i] = fileRef{name: name, origin: origin, fid: fid}
		}
		if err := c.Settle(50); err != nil {
			b.Fatal(err)
		}
		for i := 0; i <= nOrigins; i++ {
			if _, err := c.Host(i).PropagateOnce(); err != nil {
				b.Fatal(err)
			}
		}
		return c, layers, files
	}

	// mutateAll issues version `appends` of every file at its origin and
	// queues the notifications on host 0.  contents decides the workload
	// shape (append-one-block vs byte-identical touch).
	mutateAll := func(b *testing.B, layers []*physical.Layer, files []fileRef,
		contents func(i, appends int) []byte, appends int) {
		for i, f := range files {
			l := layers[f.origin]
			root, err := l.Root()
			if err != nil {
				b.Fatal(err)
			}
			vn, err := root.Lookup(f.name)
			if err != nil {
				b.Fatal(err)
			}
			if err := vnode.WriteFile(vn, contents(i, appends)); err != nil {
				b.Fatal(err)
			}
			layers[0].NoteNewVersion(physical.RootPath(), f.fid, l.Replica())
		}
	}
	noteAll := func(layers []*physical.Layer, files []fileRef) {
		for _, f := range files {
			layers[0].NoteNewVersion(physical.RootPath(), f.fid, layers[f.origin].Replica())
		}
	}
	appendContents := func(i, appends int) []byte {
		return workload.AppendOneBlock(wlSeed, i, baseBlocks, appends, bs)
	}
	touchContents := func(i, _ int) []byte {
		return workload.TouchMetadata(wlSeed, i, baseBlocks, 0, bs)
	}

	run := func(b *testing.B, cfg recon.PropagateConfig, contents func(i, appends int) []byte, dominated bool) {
		c, layers, files := setup(b)
		var rpcs, wireBytes, shipped, reused uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mutateAll(b, layers, files, contents, i+1)
			if dominated {
				if _, err := c.Host(0).PropagateOnceCfg(cfg); err != nil {
					b.Fatal(err)
				}
				noteAll(layers, files)
			}
			before := c.NetworkStats()
			var beforeShipped, beforeReused uint64
			for h := 0; h <= nOrigins; h++ {
				s := c.BlockStatsFor(h)
				beforeShipped += s.BlocksShipped
				beforeReused += s.BlocksReused
			}
			b.StartTimer()
			stats, err := c.Host(0).PropagateOnceCfg(cfg)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			after := c.NetworkStats()
			rpcs += after.RPCs - before.RPCs
			wireBytes += after.RPCBytes - before.RPCBytes
			var afterShipped, afterReused uint64
			for h := 0; h <= nOrigins; h++ {
				s := c.BlockStatsFor(h)
				afterShipped += s.BlocksShipped
				afterReused += s.BlocksReused
			}
			shipped += afterShipped - beforeShipped
			reused += afterReused - beforeReused
			if dominated {
				if stats.FilesPulled != 0 {
					b.Fatalf("all-dominated pass pulled %d files", stats.FilesPulled)
				}
				if afterShipped != beforeShipped {
					b.Fatalf("all-dominated pass shipped %d blocks", afterShipped-beforeShipped)
				}
			} else if stats.FilesPulled != nFiles {
				b.Fatalf("pulled %d files, want %d", stats.FilesPulled, nFiles)
			}
			if n := len(layers[0].PendingVersions()); n != 0 {
				b.Fatalf("%d entries still pending after pass", n)
			}
			b.StartTimer()
		}
		b.StopTimer()
		if probs, err := c.Fsck(); err != nil || len(probs) != 0 {
			b.Fatalf("fsck after bench: %v %v", probs, err)
		}
		n := float64(b.N)
		b.ReportMetric(float64(rpcs)/n, "rpcs/pass")
		b.ReportMetric(float64(wireBytes)/n/nFiles, "wireBytes/file")
		b.ReportMetric(float64(shipped)/n, "blocksShipped/pass")
		b.ReportMetric(float64(reused)/n, "blocksReused/pass")
		if shipped+reused > 0 {
			b.ReportMetric(float64(reused)/float64(shipped+reused), "dedupHitRate")
		}
	}

	deltaCfg := recon.PropagateConfig{Policy: retry.Default()}
	b.Run("delta/append-one-block", func(b *testing.B) { run(b, deltaCfg, appendContents, false) })
	b.Run("delta/touch-metadata", func(b *testing.B) { run(b, deltaCfg, touchContents, false) })
	b.Run("delta/all-dominated", func(b *testing.B) { run(b, deltaCfg, appendContents, true) })
}

// BenchmarkE14HedgedPulls measures the virtual-tick tail latency of
// propagation pulls over a persistently slow, heavy-tailed link, with and
// without hedging (E14).  Host 0 originates every version; host 2 pulls
// first over fast links and so always holds a fresh copy; host 1's link to
// host 0 is slow with occasional large spikes.  With hedging enabled a
// backup pull to host 2 is issued once the primary passes the threshold,
// and the first virtual response wins — cutting the p99 pull ticks from
// spike-sized to roughly HedgeAfter plus a fast round trip.  All latency is
// virtual, so the percentiles are exact and deterministic per seed; ns/op
// is incidental.
func BenchmarkE14HedgedPulls(b *testing.B) {
	const rounds = 128
	const hedgeAfter = 30
	run := func(b *testing.B, hedge uint64) {
		c, err := NewCluster(3, WithSeed(11))
		if err != nil {
			b.Fatal(err)
		}
		c.InjectLatency(LatencyConfig{BaseTicks: 4, JitterTicks: 2})
		c.InjectLinkLatency(1, 0, LatencyConfig{BaseTicks: 40, JitterTicks: 10, SpikeRate: 0.25, SpikeTicks: 400})
		m0, err := c.Mount(0)
		if err != nil {
			b.Fatal(err)
		}
		var samples []uint64
		cfg := recon.PropagateConfig{
			Policy:      retry.Default(),
			HedgeAfter:  hedge,
			OnPullTicks: func(t uint64) { samples = append(samples, t) },
		}
		var total recon.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rounds; r++ {
				path := fmt.Sprintf("/e14-%d-%d", i, r)
				if err := m0.WriteFile(path, []byte(fmt.Sprintf("tail %d.%d", i, r))); err != nil {
					b.Fatal(err)
				}
				// Host 2 pulls first over fast links: it is the up-to-date
				// alternate source the hedge can win from.
				if _, err := c.Host(2).PropagateOnce(); err != nil {
					b.Fatal(err)
				}
				stats, err := c.Host(1).PropagateOnceCfg(cfg)
				if err != nil {
					b.Fatal(err)
				}
				total.Add(stats)
			}
		}
		b.StopTimer()
		if n := len(c.PendingVersionsFor(1)); n != 0 {
			b.Fatalf("%d entries still pending on host 1", n)
		}
		if probs, err := c.Fsck(); err != nil || len(probs) != 0 {
			b.Fatalf("fsck after bench: %v %v", probs, err)
		}
		sorted := append([]uint64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pct := func(p float64) float64 {
			if len(sorted) == 0 {
				return 0
			}
			return float64(sorted[int(p*float64(len(sorted)-1))])
		}
		n := float64(b.N) * rounds
		b.ReportMetric(pct(0.50), "p50PullTicks")
		b.ReportMetric(pct(0.99), "p99PullTicks")
		b.ReportMetric(float64(total.Hedges)/n, "hedges/pull")
		b.ReportMetric(float64(total.HedgeWins)/n, "hedgeWins/pull")
	}
	b.Run("hedged", func(b *testing.B) { run(b, hedgeAfter) })
	b.Run("unhedged", func(b *testing.B) { run(b, 0) })
}

// BenchmarkE15GossipScale measures what the epidemic notification plane
// costs the origin as the cluster grows (E15).  For each cluster size the
// same 4-update workload runs once flat — GossipConfig{}: every holder, no
// relay, the paper's §2.5 one-datagram-per-replica — and once with gossip
// (fanout 3, TTL 6), as parameter values of the one notification path: the
// flat origin pays n-1 notices per rumor, the gossip origin a constant
// fanout, with the remaining coverage financed by relayers — O(k) at the
// origin, O(n·k) spread across the cluster.  Convergence is then driven by
// propagation plus budget-4 anti-entropy passes, and the passes-to-identical
// count is reported; it must grow no worse than linearly in n.  All counting
// metrics are deterministic per seed; ns/op is incidental.
func BenchmarkE15GossipScale(b *testing.B) {
	const updates = 4
	run := func(b *testing.B, n int, cfg GossipConfig) {
		for i := 0; i < b.N; i++ {
			c, err := NewCluster(n, WithSeed(15), WithPolicy(FirstAvailable),
				WithStorage(4096, 512))
			if err != nil {
				b.Fatal(err)
			}
			c.ConfigureGossip(cfg)
			// The writer mounts mid-cluster; FirstAvailable routes its writes
			// to the first replica, whose host originates every rumor.
			m, err := c.Mount(n / 2)
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < updates; u++ {
				if err := m.WriteFile(fmt.Sprintf("/e15-%d", u), []byte(fmt.Sprintf("u%d", u))); err != nil {
					b.Fatal(err)
				}
			}
			rootVol := c.RootVolume()
			treesEqual := func() bool {
				ref := replicaTreeOf(b, c, 0, rootVol, false)
				for h := 1; h < n; h++ {
					if replicaTreeOf(b, c, h, rootVol, false) != ref {
						return false
					}
				}
				return true
			}
			passes := 0
			for ; passes < 64; passes++ {
				if treesEqual() {
					break
				}
				if _, err := c.Propagate(); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Reconcile(); err != nil {
					b.Fatal(err)
				}
			}
			if passes >= 64 {
				b.Fatalf("n=%d not converged after 64 passes", n)
			}
			var origin GossipStats
			var originated uint64
			for h := 0; h < n; h++ {
				gs := c.GossipStatsFor(h)
				originated += gs.RumorsOriginated
				if gs.RumorsOriginated > origin.RumorsOriginated {
					origin = gs
				}
			}
			ns := c.NetworkStats()
			if originated == 0 {
				b.Fatal("run originated no rumors")
			}
			b.ReportMetric(float64(origin.NoticesSent)/float64(updates), "originDatagrams/update")
			b.ReportMetric(float64(origin.NoticesSent)/float64(origin.RumorsOriginated), "notices/rumor")
			b.ReportMetric(float64(ns.Datagrams)/float64(updates), "totalDatagrams/update")
			b.ReportMetric(float64(passes), "passesToConverge")
		}
	}
	for _, n := range []int{8, 32, 128, 256} {
		cfgGossip := GossipConfig{Fanout: 3, TTL: 6, ReconPeers: 4}
		b.Run(fmt.Sprintf("gossip/n=%d", n), func(b *testing.B) { run(b, n, cfgGossip) })
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) { run(b, n, GossipConfig{}) })
	}
}
