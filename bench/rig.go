package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/disk"
	"repro/internal/exp"
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

// tracedShare is the share of the timed run's op count the rig runs.
const tracedShare = 0.25

// rigHost is one storage site of the rig: the stack core.Host.provision
// builds, with a span layer at each boundary:
//
//	disk -> ufs -> ufsvn -> [span "ufs"] -> physical -> [span "physical"] -> nfs server
//	                                            \-> repl server
type rigHost struct {
	addr   simnet.Addr
	sn     *simnet.Host
	layer  *physical.Layer
	export *spanVFS // what the NFS server and a co-resident logical layer see
}

// rig is a cluster assembled by hand from the layers' public
// constructors, so that bench-owned span layers sit between them.  Its
// disks are snapshots of a populated cluster's disks.
type rig struct {
	s     *spec
	rec   *recorder
	net   *simnet.Network
	vol   ids.VolumeHandle
	hosts []*rigHost
	ex    *executor
}

const rigNFS = "nfs"

// newRig mounts snapshots of the bed's disks under a fresh, span-wrapped
// stack.  The bed is not disturbed.
func newRig(b *bed, rec *recorder, seed int64) (*rig, error) {
	r := &rig{s: b.s, rec: rec, net: simnet.New(seed)}
	for i, l := range b.replicas() {
		var dev *disk.Device
		for h := 0; h < b.c.NumHosts() && dev == nil; h++ {
			dev = b.c.Host(h).Device(l.VolumeReplica())
		}
		fs, err := ufs.Mount(dev.Snapshot(), nil)
		if err != nil {
			return nil, err
		}
		layer, err := physical.Open(newSpanVFS(ufsvn.New(fs), rec, "ufs"))
		if err != nil {
			return nil, err
		}
		h := &rigHost{addr: simnet.Addr(fmt.Sprintf("r%d", i)), layer: layer}
		h.sn = r.net.Host(h.addr)
		h.export = newSpanVFS(layer, rec, "physical")
		// The span layer is the server's resolver as well as its file
		// system: handing it the bare layer there would bypass the spans.
		nfs.ServeOn(h.sn, rigNFS, h.export, h.export)
		repl.NewServer(h.sn).Register(layer)
		r.hosts = append(r.hosts, h)
		r.vol = layer.Volume()
	}
	_, m := b.s.populate(seed)
	r.ex = &executor{m: m, clock: wallClock}
	switch {
	case b.s.sideVolume:
		// The client's host stores nothing.
		r.ex.mounts = []fsys{r.mount(r.net.Host("rc"), -1)}
	case b.s.partitioned:
		r.ex.mounts = []fsys{r.mount(r.hosts[0].sn, 0), r.mount(r.hosts[2].sn, 2)}
	default:
		r.ex.mounts = []fsys{r.mount(r.hosts[0].sn, 0)}
	}
	r.ex.before = func(o *op) {
		rec.op++
		rec.begin("op", classNames[o.kind.class()])
	}
	r.ex.after = func(*op) {
		if rec.on {
			rec.finish(rec.stack[0])
		}
	}
	return r, nil
}

// mount builds the logical layer of a client on host from: the
// co-resident replica (local, -1 for none) first and directly, the others
// through span-wrapped NFS clients in replica order -- core.Host.Mount.
func (r *rig) mount(from *simnet.Host, local int) fsys {
	var reps []logical.Replica
	if local >= 0 {
		reps = append(reps, logical.Replica{ID: r.hosts[local].layer.Replica(), FS: r.hosts[local].export})
	}
	for i, h := range r.hosts {
		if i == local {
			continue
		}
		cl := nfs.DialService(from, h.addr, rigNFS, nil)
		reps = append(reps, logical.Replica{ID: h.layer.Replica(), FS: newSpanVFS(cl, r.rec, "nfs")})
	}
	lay := logical.New(r.vol, reps, logical.Options{Notify: r.notifier(from.Addr())})
	root, _ := lay.Root() // logical.Layer.Root cannot fail
	return vnodeFS{root}
}

// notifier feeds an update notification straight into the new-version
// cache of every reachable replica but the origin's (core.Host does this
// with a datagram; the rig has no use for the codec).
func (r *rig) notifier(from simnet.Addr) logical.Notifier {
	return func(dir []ids.FileID, file ids.FileID, origin ids.ReplicaID) {
		for _, h := range r.hosts {
			if h.layer.Replica() != origin && (h.addr == from || r.net.Connected(from, h.addr)) {
				h.layer.NoteNewVersion(dir, file, origin)
			}
		}
	}
}

// peer is h's span-wrapped pull source for the replica on host p, or nil
// when the network separates them.
func (r *rig) peer(h, p *rigHost) recon.Peer {
	if !r.net.Connected(h.addr, p.addr) {
		return nil
	}
	vr := ids.VolumeReplicaHandle{Vol: r.vol, Replica: p.layer.Replica()}
	return &spanPeer{c: repl.NewClient(h.sn, p.addr, vr), rec: r.rec}
}

func (r *rig) others(h *rigHost) []*rigHost {
	var out []*rigHost
	for _, p := range r.hosts {
		if p != h {
			out = append(out, p)
		}
	}
	return out
}

// daemon runs fn as one traced daemon step.
func (r *rig) daemon(kind string, fn func() error) (time.Duration, error) {
	r.rec.op++
	i := r.rec.begin("pass", kind)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.rec.finish(i)
	return d, err
}

// propagate is one cluster-wide propagation pass: recon.Propagate on every
// host, with one worker so that spans nest on one stack.
func (r *rig) propagate() (time.Duration, error) {
	return r.daemon("propagate", func() error {
		for _, h := range r.hosts {
			find := func(origin ids.ReplicaID) recon.Peer {
				for _, p := range r.others(h) {
					if p.layer.Replica() == origin {
						return r.peer(h, p)
					}
				}
				return nil
			}
			if _, err := recon.Propagate(h.layer, find, recon.PropagateConfig{Policy: retry.Default(), Workers: 1}); err != nil {
				return err
			}
		}
		return nil
	})
}

// reconcile is one cluster-wide reconciliation round; it reports whether
// any replica changed.
func (r *rig) reconcile() (time.Duration, bool, error) {
	changed := false
	d, err := r.daemon("reconcile", func() error {
		for _, h := range r.hosts {
			for _, p := range r.others(h) {
				peer := r.peer(h, p)
				if peer == nil {
					continue
				}
				st, err := recon.ReconcileVolume(h.layer, peer)
				if err != nil {
					return err
				}
				changed = changed || st.Changed()
			}
		}
		return nil
	})
	return d, changed, err
}

func (r *rig) collectGarbage() (time.Duration, error) {
	return r.daemon("gc", func() error {
		for _, h := range r.hosts {
			var peers []recon.Peer
			for _, p := range r.others(h) {
				if peer := r.peer(h, p); peer != nil {
					peers = append(peers, peer)
				}
			}
			if len(peers) != len(r.hosts)-1 {
				continue
			}
			if _, err := recon.TombstoneGC(h.layer, peers); err != nil {
				return err
			}
		}
		return nil
	})
}

// settle converges the rig: one propagation pass, then reconcile rounds
// until one changes nothing.  It returns the time and the daemon steps.
func (r *rig) settle() (time.Duration, int, error) {
	total, err := r.propagate()
	if err != nil {
		return total, 1, err
	}
	for round := 1; round <= maxRounds; round++ {
		d, changed, err := r.reconcile()
		total += d
		if err != nil || !changed {
			return total, 1 + round, err
		}
	}
	return total, 1 + maxRounds, fmt.Errorf("rig not quiescent after %d reconcile rounds", maxRounds)
}

// rigRun is what one run of the rig measured.
type rigRun struct {
	busy      time.Duration // client calls + daemon steps
	fgRPCs    uint64        // RPCs issued between daemon steps
	classN    [numClasses]int
	classBusy [numClasses]time.Duration // client-call time per class
	daemons   int
	failures  []error
}

// run issues the ops (warm-up first, unrecorded) with the workload's
// daemon steps, then converges the rig.
func (r *rig) run(ops []op, warm int) (*rigRun, error) {
	s := r.s
	out := &rigRun{}
	if s.partitioned {
		r.net.Partition([]simnet.Addr{r.hosts[0].addr, r.hosts[1].addr}, []simnet.Addr{r.hosts[2].addr, r.hosts[3].addr})
	}
	on := r.rec.on
	r.rec.on = false
	for i := 0; i < warm; i++ {
		if _, err := r.ex.run(&ops[i]); err != nil {
			return nil, fmt.Errorf("rig warm-up: %w", err)
		}
	}
	if s.passEvery > 0 {
		if _, err := r.propagate(); err != nil {
			return nil, fmt.Errorf("rig warm-up pass: %w", err)
		}
	}
	r.rec.on = on
	ops = ops[warm:]
	runtime.GC()

	mark := r.net.Stats().RPCs
	step := func(d time.Duration, err error) {
		out.busy += d
		out.daemons++
		if err != nil {
			out.failures = append(out.failures, err)
		}
	}
	for i := range ops {
		o := &ops[i]
		d, err := r.ex.run(o)
		out.busy += d
		if err != nil {
			out.failures = append(out.failures, err)
		} else {
			out.classN[o.kind.class()]++
			out.classBusy[o.kind.class()] += d
		}
		if s.passEvery == 0 || (i+1)%s.passEvery != 0 {
			continue
		}
		out.fgRPCs += r.net.Stats().RPCs - mark
		step(r.propagate())
		if !s.partitioned && (i+1)%(10*s.passEvery) == 0 {
			d, _, err := r.reconcile()
			step(d, err)
			step(r.collectGarbage())
		}
		mark = r.net.Stats().RPCs
	}
	out.fgRPCs += r.net.Stats().RPCs - mark
	if len(r.hosts) > 1 && !s.sideVolume {
		r.net.Heal()
		d, steps, err := r.settle()
		out.busy += d
		out.daemons += steps
		if err != nil {
			out.failures = append(out.failures, err)
		}
	}
	// Every replica must hold the model's tree, except after a partition,
	// whose planted conflicts the rig leaves unresolved.
	if !s.partitioned {
		for _, h := range r.hosts {
			root, err := h.layer.Root()
			if err == nil {
				err = checkTree(vnodeFS{root}, r.ex.m)
			}
			if err != nil {
				out.failures = append(out.failures, fmt.Errorf("replica %d: %w", h.layer.Replica(), err))
			}
		}
	}
	return out, nil
}

// tracedRun runs a quarter of the timed run's ops on the rig twice, from
// the same disk images: once with recording off and once with it on.  The
// first gives the wall-clock the second's overhead is judged against; the
// second gives every per-layer time.
func tracedRun(b *bed, res *runResult, outDir string) error {
	s, seed := b.s, res.Seed
	n := int(float64(s.opCount(res.Scale))*tracedShare + 0.5)
	if n < 20 {
		n = 20
	}
	warm := int(float64(n)*warmupShare + 0.5)
	var runs [2]*rigRun
	var rec *recorder
	for k, on := range []bool{false, true} {
		rec = newRecorder(on)
		r, err := newRig(b, rec, seed)
		if err != nil {
			return fmt.Errorf("%s: rig: %w", s.name, err)
		}
		ops, _ := s.stream(seed, warm, n)
		if runs[k], err = r.run(ops, warm); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, err := range runs[k].failures {
			res.fail(fmt.Errorf("rig: %w", err))
		}
	}
	if s.name == "update_propagate" && countSpans(rec, "repl", "PullBatchDelta") == 0 {
		res.fail(fmt.Errorf("rig propagated without one delta pull: the span peer hides a capability"))
	}
	if err := checkSpans(rec.spans); err != nil {
		res.fail(fmt.Errorf("rig: %w", err))
	}
	if err := rec.write(fmt.Sprintf("%s/trace-%s.json", outDir, s.name), s.name, seed); err != nil {
		return err
	}
	traceMetrics(rec, runs[1], res.Metrics.put)
	res.Metrics.put("trace.overhead_ratio", ratio(runs[1].busy.Seconds(), runs[0].busy.Seconds()))
	res.Metrics.put("trace.spans", float64(len(rec.spans)))
	res.TracedOpUS = map[string]float64{}
	for c := class(0); c < numClasses; c++ {
		if runs[1].classN[c] > 0 {
			res.TracedOpUS[classNames[c]] = us(runs[1].classBusy[c]) / float64(runs[1].classN[c])
		}
	}
	return nil
}

func countSpans(rec *recorder, layer, call string) int {
	n := 0
	for i := range rec.spans {
		if rec.spans[i].layer == layer && rec.spans[i].call == call {
			n++
		}
	}
	return n
}

// selfTimes returns each span's duration minus the part its child spans
// cover.  Spans on one stack never overlap their siblings, so the part
// covered is the sum of the children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] += spans[i].end - spans[i].start
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

var tracedLayers = []string{"logical", "nfs", "physical", "ufs"}

// traceMetrics folds the spans into the per-layer time metrics.  Within a
// client op the root span's own time is the logical layer's (the mount
// helpers and logical.Layer run there); within a daemon step the root's
// own time is recon's, repl spans are the wrapped peer calls, ufs spans
// beneath a repl span are the origin's store and the rest the puller's.
func traceMetrics(rec *recorder, run *rigRun, put func(string, float64)) {
	spans := rec.spans
	self := selfTimes(spans)
	var (
		opSelf      [numClasses]map[string]int64
		rootKids    int
		nfsSpans    int
		physSpans   int
		storeCalls  int
		reconSelf   int64
		replSelf    int64
		pullerStore int64
		originStore int64
	)
	for c := range opSelf {
		opSelf[c] = map[string]int64{}
	}
	classOf := map[string]class{}
	for c, n := range classNames {
		classOf[n] = class(c)
	}
	underRepl := make([]bool, len(spans))
	rootOf := make([]int32, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.parent < 0 {
			rootOf[i] = int32(i)
		} else {
			rootOf[i] = rootOf[sp.parent]
			underRepl[i] = underRepl[sp.parent] || spans[sp.parent].layer == "repl"
		}
		root := &spans[rootOf[i]]
		if root.layer == "op" {
			layer := sp.layer
			if sp.parent < 0 {
				layer = "logical"
			} else if spans[sp.parent].parent < 0 {
				rootKids++
			}
			opSelf[classOf[root.call]][layer] += self[i]
			switch sp.layer {
			case "nfs":
				nfsSpans++
			case "physical":
				physSpans++
			case "ufs":
				storeCalls++
			}
			continue
		}
		switch {
		case sp.layer == "pass":
			reconSelf += self[i]
		case sp.layer == "repl":
			replSelf += self[i]
		case underRepl[i]:
			originStore += self[i]
		default:
			pullerStore += self[i]
		}
	}
	nops := 0
	for c := class(0); c < numClasses; c++ {
		nops += run.classN[c]
		for _, layer := range tracedLayers {
			put(layer+".self_us."+classNames[c], ratio(float64(opSelf[c][layer])/1e3, float64(run.classN[c])))
		}
	}
	put("logical.downcalls_per_op", ratio(float64(rootKids), float64(nops)))
	put("nfs.rpcs_per_call", ratio(float64(run.fgRPCs), float64(nfsSpans)))
	put("physical.storecalls_per_call", ratio(float64(storeCalls), float64(physSpans)))
	d := float64(run.daemons)
	put("recon.self_ms_per_pass", ratio(float64(reconSelf)/1e6, d))
	put("recon.store_ms_per_pass", ratio(float64(pullerStore)/1e6, d))
	put("repl.self_ms_per_pass", ratio(float64(replSelf)/1e6, d))
	put("repl.origin_store_ms_per_pass", ratio(float64(originStore)/1e6, d))
}

// onceMetrics measures the two paper numbers that need no workload: the
// cost of one layer crossing (the same op through 0 and 8 null layers)
// and the extra disk reads of a cold and a warm open.
func onceMetrics(put func(string, float64)) error {
	const depth, iters = 8, 20000
	var per [2]time.Duration
	for k, d := range []int{0, depth} {
		root, err := exp.BuildNullStack(d)
		if err != nil {
			return err
		}
		if err := exp.PrepareFile(root); err != nil {
			return err
		}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if err := exp.TouchOp(root); err != nil {
					return err
				}
			}
			if e := time.Since(t0); e < best {
				best = e
			}
		}
		per[k] = best
	}
	// TouchOp crosses each layer three times (two lookups and a getattr).
	put("vnode.crossing_ns", float64(per[1]-per[0])/float64(iters)/depth/3)
	io, err := exp.OpenIOCounts(true)
	if err != nil {
		return err
	}
	put("physical.cold_open_extra_ios", float64(io.ColdDelta()))
	put("physical.warm_open_extra_ios", float64(io.WarmDelta()))
	return nil
}

// checkSpans verifies the span tree is well formed: every span closed,
// every child inside its parent and sharing its op id, and no negative
// self time.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	for i, sp := range spans {
		if sp.end < sp.start {
			return fmt.Errorf("span %d (%s.%s) ends before it starts", i, sp.layer, sp.call)
		}
		if sp.parent >= 0 {
			p := spans[sp.parent]
			if sp.start < p.start || sp.end > p.end {
				return fmt.Errorf("span %d (%s.%s) is not inside its parent %d", i, sp.layer, sp.call, sp.parent)
			}
			if sp.op != p.op {
				return fmt.Errorf("span %d has op %d, its parent op %d", i, sp.op, p.op)
			}
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s.%s) has negative self time %d", i, sp.layer, sp.call, self[i])
		}
	}
	return nil
}
