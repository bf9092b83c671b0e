package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	ficus "repro"
	"repro/internal/physical"
)

// warmupShare is the extra share of the op count issued untimed and
// uncounted before the measured phase.
const warmupShare = 0.05

// maxRounds caps the reconcile rounds a convergence may take.
const maxRounds = 10

// counters is everything the timed run samples from the public accessors,
// indexed by the constants below.  It is read only at daemon-step
// boundaries, so it costs nothing per op and, the simulation being
// deterministic, repeats exactly for a seed.
type counters [numCounters]uint64

const (
	cRPCs = iota
	cRPCBytes
	cDgrams
	cDgramBytes
	cDiskReads
	cDiskWrites
	cSealed
	cShipped
	cReused
	cBytesShipped
	cBytesSaved
	cBufferHits
	cBufferMisses
	cInodeHits
	cInodeMisses
	cNameHits
	cNameMisses
	numCounters
)

func (a *counters) add(b counters) {
	for i := range a {
		a[i] += b[i]
	}
}

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// bed is one workload's cluster, set up and populated.
type bed struct {
	s      *spec
	c      *ficus.Cluster
	vol    ficus.Volume
	mounts []*ficus.Mount
	ex     *executor
}

// replicas lists the physical layers storing the bed's volume, by host.
// A crashed host has none.
func (b *bed) replicas() []*physical.Layer {
	var out []*physical.Layer
	for i := 0; i < b.c.NumHosts(); i++ {
		for _, l := range b.c.Host(i).LocalReplicas() {
			if l.Volume().String() == b.vol.String() {
				out = append(out, l)
			}
		}
	}
	return out
}

func (b *bed) snap() counters {
	var k counters
	ns := b.c.NetworkStats()
	k[cRPCs], k[cRPCBytes], k[cDgrams], k[cDgramBytes] = ns.RPCs, ns.RPCBytes, ns.Datagrams, ns.DatagramBytes
	for i := 0; i < b.c.NumHosts(); i++ {
		ds := b.c.DiskStatsFor(i)
		k[cDiskReads] += ds.Reads
		k[cDiskWrites] += ds.Writes
		bs := b.c.BlockStatsFor(i)
		k[cSealed] += bs.ManifestsSealed
		k[cShipped] += bs.BlocksShipped
		k[cReused] += bs.BlocksReused
		k[cBytesShipped] += bs.BytesShipped
		k[cBytesSaved] += bs.BytesSaved
		for _, l := range b.c.Host(i).LocalReplicas() {
			if fs := b.c.Host(i).UFS(l.VolumeReplica()); fs != nil {
				cs := fs.CacheStats()
				k[cBufferHits] += cs.BufferHits
				k[cBufferMisses] += cs.BufferMisses
				k[cInodeHits] += cs.InodeHits
				k[cInodeMisses] += cs.InodeMisses
				k[cNameHits] += cs.NameHits
				k[cNameMisses] += cs.NameMisses
			}
		}
	}
	return k
}

func (b *bed) pending() int {
	n := 0
	for i := 0; i < b.c.NumHosts(); i++ {
		n += len(b.c.PendingVersionsFor(i))
	}
	return n
}

// setUp builds the workload's cluster, populates it through the client
// mount, and settles it so every replica holds the population.
func setUp(s *spec, seed int64) (*bed, error) {
	opts := []ficus.Option{ficus.WithSeed(seed)}
	if s.storage[0] > 0 {
		opts = append(opts, ficus.WithStorage(s.storage[0], s.storage[1]))
	}
	c, err := ficus.NewCluster(s.hosts, opts...)
	if err != nil {
		return nil, err
	}
	b := &bed{s: s, c: c, vol: c.RootVolume()}
	switch {
	case s.sideVolume:
		// NewVolume ignores WithStorage.
		if b.vol, err = c.NewVolume(1); err != nil {
			return nil, err
		}
		if err := c.ReplicateVolume(b.vol, 2); err != nil {
			return nil, err
		}
		m, err := c.MountVolume(0, b.vol)
		if err != nil {
			return nil, err
		}
		b.mounts = []*ficus.Mount{m}
	case s.partitioned:
		for _, h := range []int{0, 2} {
			m, err := c.Mount(h)
			if err != nil {
				return nil, err
			}
			b.mounts = append(b.mounts, m)
		}
	default:
		m, err := c.Mount(0)
		if err != nil {
			return nil, err
		}
		b.mounts = []*ficus.Mount{m}
	}
	pop, _ := s.populate(seed)
	b.ex = &executor{m: newModel(seed), clock: threadCPU}
	for _, m := range b.mounts {
		b.ex.mounts = append(b.ex.mounts, mountFS{m})
	}
	for i := range pop {
		if _, err := b.ex.run(&pop[i]); err != nil {
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	if _, _, err := b.settle(); err != nil {
		return nil, fmt.Errorf("settle after populate: %w", err)
	}
	return b, nil
}

// settle runs a propagation pass and then reconcile rounds until one
// changes nothing; it returns the rounds and what they did.
func (b *bed) settle() (int, ficus.SyncStats, error) {
	b.c.Tick()
	if _, err := b.c.Propagate(); err != nil {
		return 0, ficus.SyncStats{}, err
	}
	return b.reconcileUntilQuiet()
}

func (b *bed) reconcileUntilQuiet() (rounds int, total ficus.SyncStats, err error) {
	for rounds < maxRounds {
		st, err := b.c.Reconcile()
		rounds++
		total.DirsVisited += st.DirsVisited
		total.EntriesAdopted += st.EntriesAdopted
		if err != nil {
			return rounds, total, err
		}
		if !st.Changed() {
			return rounds, total, nil
		}
	}
	return rounds, total, fmt.Errorf("not quiescent after %d reconcile rounds", maxRounds)
}

// checkFinal asserts what must hold once a workload has converged: both
// checkers are clean and every replica of the volume holds exactly the
// model's tree and contents (so the replicas are also identical to each
// other).
func (b *bed) checkFinal() error {
	probs, err := b.c.Fsck()
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if len(probs) > 0 {
		return fmt.Errorf("fsck: %d problems, first: %s", len(probs), probs[0])
	}
	reps := b.replicas()
	want := b.s.hosts
	if b.s.sideVolume {
		want = 2
	}
	if len(reps) != want {
		return fmt.Errorf("%d replicas of the volume are mounted, want %d", len(reps), want)
	}
	for _, l := range reps {
		root, err := l.Root()
		if err != nil {
			return err
		}
		if err := checkTree(vnodeFS{root}, b.ex.m); err != nil {
			return fmt.Errorf("replica %v: %w", l.VolumeReplica(), err)
		}
	}
	return nil
}

// checkTree compares a whole file system with the model: every directory's
// name set and every file's bytes.
func checkTree(fs fsys, m *model) error {
	dirs := make([]string, 0, len(m.dirs))
	for d := range m.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var buf []byte
	for _, d := range dirs {
		got, err := fs.ReadDirNames(d)
		if err != nil {
			return fmt.Errorf("readdir %q: %w", d, err)
		}
		want := m.names(d)
		if len(got) != len(want) {
			return fmt.Errorf("dir %q has %d names, model has %d", d, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("dir %q has name %q, model has %q", d, got[i], want[i])
			}
		}
		for _, n := range want {
			p := n
			if d != "" {
				p = d + "/" + n
			}
			f, ok := m.files[p]
			if !ok {
				continue
			}
			data, err := fs.ReadFile(p)
			if err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
			buf = m.content(f, buf)
			if string(data) != string(buf) {
				return fmt.Errorf("file %s differs from the model", p)
			}
		}
	}
	return nil
}

// runResult is what one run of one workload measured.
type runResult struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Scale     float64        `json:"scale"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Correct   bool           `json:"correct"`
	Errors    []string       `json:"errors,omitempty"`
	Samples   map[string]int `json:"samples"`
	Metrics   metricSet      `json:"metrics"`
	// PhaseWallS is how long the measured phase took by the wall clock,
	// harness included; for the reader, no metric is derived from it.
	PhaseWallS float64 `json:"phase_wall_s"`
	// TracedOpUS is the traced run's mean client-call time per op class,
	// which the layers' self times must add up to.
	TracedOpUS map[string]float64 `json:"traced_op_us,omitempty"`
}

func newRunResult(s *spec, seed int64, scale float64) *runResult {
	return &runResult{Workload: s.name, Seed: seed, Scale: scale, Correct: true,
		Samples: map[string]int{}, Metrics: metricSet{}}
}

func (r *runResult) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// opCount is the measured op count at a scale; at least one daemon cycle's
// worth, so every workload still exercises what it was built for.
func (s *spec) opCount(scale float64) int {
	n := int(float64(s.ops)*scale + 0.5)
	if n < 20 {
		n = 20
	}
	return n
}

// setupBudget bounds how long a run spends repeating set-up for a steadier
// median: no new set-up is started once this much wall-clock time has gone
// into them.
const setupBudget = 8 * time.Second

// setUpBed sets the workload's cluster up and returns the median set-up
// time in seconds of processor time: of up to most set-ups, but no new one
// is started once setupBudget has gone into them.  The last bed is kept.
func setUpBed(s *spec, seed int64, most int) (*bed, float64, error) {
	var b *bed
	var times []float64
	start := time.Now()
	for len(times) == 0 || (len(times) < most && time.Since(start) < setupBudget) {
		b = nil
		runtime.GC()
		t0 := processCPU()
		nb, err := setUp(s, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		times = append(times, (processCPU() - t0).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// phase is what the measured loop accumulated.  Client calls are timed
// with the client thread's processor clock and daemon steps, which run on
// worker goroutines, with the process's.
type phase struct {
	lat        [numClasses][]time.Duration // client-call latency per class
	busy       time.Duration               // client calls + daemon steps
	cpu        time.Duration               // the process's, harness and collector included
	wall       time.Duration               // of the whole loop, for the reader
	passTimes  []time.Duration
	fg, bg     counters // foreground (between daemon steps) and daemon deltas
	pulled     int      // files the passes pulled
	pendingMax int      // most new-version cache entries seen before a pass
	updates    int      // successful write and names ops
	allocBytes uint64
	allocs     uint64 // heap objects allocated
}

// convergence is what the harness saw between the last client op (or the
// heal) and quiescence.
type convergence struct {
	took, restart time.Duration
	rounds        int
	stats         ficus.SyncStats
	conflicts     int
}

// measure runs the workload's measured phase on the bed, with tracing
// off, converges and checks the cluster, and fills res with the end-to-end
// metrics and the per-layer counts.
func (b *bed) measure(res *runResult) error {
	// The client's latencies are read from its thread's processor clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	s, seed := b.s, res.Seed
	n := s.opCount(res.Scale)
	warm := int(float64(n)*warmupShare + 0.5)
	ops, planted := s.stream(seed, warm, n)

	var fileIDs map[string]string // FileID -> path, to name reported conflicts
	if s.partitioned {
		fileIDs = map[string]string{}
		for i := 0; i < s.files; i++ {
			fi, err := b.mounts[0].Stat(s.filePath(i))
			if err != nil {
				return err
			}
			fileIDs[fi.FileID] = s.filePath(i)
		}
		b.c.Partition([]int{0, 1}, []int{2, 3})
	}

	// Warm-up: untimed, uncounted, then one daemon pass so the measured
	// phase starts with empty new-version caches.
	for i := 0; i < warm; i++ {
		if _, err := b.ex.run(&ops[i]); err != nil {
			return fmt.Errorf("%s: warm-up: %w", s.name, err)
		}
	}
	if s.passEvery > 0 {
		b.c.Tick()
		if _, err := b.c.Propagate(); err != nil {
			return fmt.Errorf("%s: warm-up pass: %w", s.name, err)
		}
	}
	runtime.GC()

	ph := b.runPhase(res, ops[warm:])
	var cv convergence
	if s.hosts > 1 && !s.sideVolume {
		var err error
		if cv, err = b.converge(planted, fileIDs); err != nil {
			res.fail(fmt.Errorf("converge: %w", err))
		}
	}
	if err := b.checkFinal(); err != nil {
		res.fail(err)
	}
	b.report(res, ph, cv)
	return b.reportSpace(res)
}

// runPhase issues the measured ops with their daemon steps.
func (b *bed) runPhase(res *runResult, ops []op) *phase {
	s := b.s
	ph := &phase{}
	for c := range ph.lat {
		ph.lat[c] = make([]time.Duration, 0, len(ops))
	}
	// daemon times one daemon step and counts it as busy time.
	daemon := func(what string, step func() error) time.Duration {
		t0 := processCPU()
		err := step()
		d := processCPU() - t0
		ph.busy += d
		if err != nil {
			res.fail(fmt.Errorf("%s: %w", what, err))
		}
		return d
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	mark := b.snap()
	wall0, cpu0 := time.Now(), processCPU()
	for i := range ops {
		o := &ops[i]
		d, err := b.ex.run(o)
		ph.busy += d
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail(err)
		} else {
			cl := o.kind.class()
			ph.lat[cl] = append(ph.lat[cl], d)
			if cl == clsWrite || cl == clsNames {
				ph.updates++
			}
		}
		if s.passEvery == 0 || (i+1)%s.passEvery != 0 {
			continue
		}
		// Daemon step: one cluster-wide Tick+Propagate pass, and every
		// tenth step a reconcile round and garbage collection.
		before := b.snap()
		ph.fg.add(before.sub(mark))
		if p := b.pending(); p > ph.pendingMax {
			ph.pendingMax = p
		}
		ph.passTimes = append(ph.passTimes, daemon("propagate", func() error {
			b.c.Tick()
			st, err := b.c.Propagate()
			ph.pulled += st.FilesPulled
			return err
		}))
		if !s.partitioned && (i+1)%(10*s.passEvery) == 0 {
			daemon("reconcile/gc", func() error {
				_, err := b.c.Reconcile()
				if err == nil {
					_, err = b.c.CollectGarbage()
				}
				return err
			})
		}
		mark = b.snap()
		ph.bg.add(mark.sub(before))
	}
	ph.cpu, ph.wall = processCPU()-cpu0, time.Since(wall0)
	ph.fg.add(b.snap().sub(mark))
	runtime.ReadMemStats(&ms1)
	ph.allocBytes, ph.allocs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs
	return ph
}

// converge takes the cluster from the last client op to quiescence: on
// partition_heal host 3 power-fails, the network heals and the host
// restarts; then a propagation pass and reconcile rounds until one changes
// nothing.  On partition_heal the conflicts are then checked and resolved,
// and the cluster converged again.
func (b *bed) converge(planted map[string]bool, fileIDs map[string]string) (convergence, error) {
	var cv convergence
	partitioned := b.s.partitioned
	if partitioned {
		b.c.CrashHost(3)
		b.c.Heal()
		t0 := processCPU()
		if err := b.c.RestartHost(3); err != nil {
			return cv, fmt.Errorf("restart host 3: %w", err)
		}
		cv.restart = processCPU() - t0
	}
	settle := func() error {
		rounds, st, err := b.settle()
		cv.rounds += rounds
		cv.stats.DirsVisited += st.DirsVisited
		cv.stats.EntriesAdopted += st.EntriesAdopted
		return err
	}
	t0 := processCPU()
	err := settle()
	if err == nil && partitioned {
		if cv.conflicts, err = b.resolveConflicts(planted, fileIDs); err == nil {
			err = settle()
		}
	}
	cv.took = processCPU() - t0
	return cv, err
}

// report turns what was measured into named metrics.
func (b *bed) report(res *runResult, ph *phase, cv convergence) {
	s := b.s
	nops := float64(res.Attempted)
	put := res.Metrics.put
	res.PhaseWallS = ph.wall.Seconds()

	// End to end.
	put("ops_per_s", nops/ph.busy.Seconds())
	put("alloc_kb_per_op", float64(ph.allocBytes)/1024/nops)
	put("allocs_per_op", float64(ph.allocs)/nops)
	var all []time.Duration
	for c := class(0); c < numClasses; c++ {
		lat := ph.lat[c]
		if len(lat) == 0 {
			continue
		}
		all = append(all, lat...)
		sortDurations(lat)
		name := classNames[c]
		res.Samples[name] = len(lat)
		put(name+"_p50_us", us(percentile(lat, 50)))
		// A percentile is reported only with ten samples beyond it.
		if c != clsStat && len(lat) >= 100 {
			put(name+"_p90_us", us(percentile(lat, 90)))
		}
		if len(lat) >= 1000 {
			put("ficus."+name+"_p99_us", us(percentile(lat, 99)))
		}
	}
	sortDurations(all)
	res.Samples["op"] = len(all)
	put("op_p50_us", us(percentile(all, 50)))
	put("op_p90_us", us(percentile(all, 90)))
	put("ficus.cpu_ms_per_op", ms(ph.cpu)/nops)
	put("ficus.failed_ops", float64(res.Failed))
	total := ph.fg
	total.add(ph.bg)
	put("disk_ios_per_op", float64(total[cDiskReads]+total[cDiskWrites])/nops)
	put("disk.reads_per_op", float64(total[cDiskReads])/nops)
	put("disk.writes_per_op", float64(total[cDiskWrites])/nops)
	if s.hosts > 1 {
		put("rpcs_per_op", float64(total[cRPCs])/nops)
		put("wire_bytes_per_op", float64(total[cRPCBytes]+total[cDgramBytes])/nops)
	}
	passes := float64(len(ph.passTimes))
	if passes > 0 && s.hosts > 1 {
		sortDurations(ph.passTimes)
		res.Samples["pass"] = len(ph.passTimes)
		put("propagate_pass_ms", ms(percentile(ph.passTimes, 50)))
	}
	if cv.took > 0 {
		put("converge_s", cv.took.Seconds())
	}

	// Per-layer counts.
	hitRatio := func(hits, misses int) float64 {
		return ratio(float64(total[hits]), float64(total[hits]+total[misses]))
	}
	put("ufs.buffer_hit_ratio", hitRatio(cBufferHits, cBufferMisses))
	put("ufs.inode_hit_ratio", hitRatio(cInodeHits, cInodeMisses))
	put("ufs.dnlc_hit_ratio", hitRatio(cNameHits, cNameMisses))
	fg, bg, pulled, updates := ph.fg, ph.bg, float64(ph.pulled), float64(ph.updates)
	put("physical.manifests_sealed_per_write", ratio(float64(fg[cSealed]), float64(len(ph.lat[clsWrite]))))
	put("physical.blocks_shipped_per_pull", ratio(float64(bg[cShipped]), pulled))
	put("physical.blocks_reused_per_pull", ratio(float64(bg[cReused]), pulled))
	put("physical.delta_bytes_saved_ratio", ratio(float64(bg[cBytesSaved]), float64(bg[cBytesSaved]+bg[cBytesShipped])))
	put("nfs.rpcs_per_op", float64(fg[cRPCs])/nops)
	put("nfs.wire_bytes_per_op", float64(fg[cRPCBytes])/nops)
	put("core.datagrams_per_update", ratio(float64(fg[cDgrams]), updates))
	put("core.datagram_bytes_per_update", ratio(float64(fg[cDgramBytes]), updates))
	put("core.pending_versions_max", float64(ph.pendingMax))
	put("core.restart_ms", ms(cv.restart))
	put("repl.rpcs_per_pass", ratio(float64(bg[cRPCs]), passes))
	put("repl.rpcs_per_pulled_file", ratio(float64(bg[cRPCs]), pulled))
	put("repl.wire_bytes_per_pulled_file", ratio(float64(bg[cRPCBytes]), pulled))
	put("recon.files_pulled_per_pass", ratio(pulled, passes))
	put("recon.rounds_to_converge", float64(cv.rounds))
	put("recon.dirs_visited_per_round", ratio(float64(cv.stats.DirsVisited), float64(cv.rounds)))
	put("recon.entries_adopted", float64(cv.stats.EntriesAdopted))
	put("recon.conflicts_reported", float64(cv.conflicts))
}

// reportSpace reports the block pool's size and the blocks in use on every
// replica's disk over the live user bytes they hold.  Statfs walks the
// bitmaps through the buffer cache, so this runs last, after every cache
// counter has been read.
func (b *bed) reportSpace(res *runResult) error {
	var pool, used uint64
	nrep := 0
	for i := 0; i < b.c.NumHosts(); i++ {
		pool += b.c.BlockStatsFor(i).PoolBlocks
		for _, l := range b.c.Host(i).LocalReplicas() {
			if l.Volume().String() != b.vol.String() {
				continue
			}
			st, err := b.c.Host(i).UFS(l.VolumeReplica()).Statfs()
			if err != nil {
				return err
			}
			used += uint64(st.DataBlocks-st.FreeBlocks) * blockSize
			nrep++
		}
	}
	res.Metrics.put("physical.pool_blocks", float64(pool))
	res.Metrics.put("ufs.stored_bytes_per_user_byte", ratio(float64(used), float64(b.ex.m.userBytes())*float64(nrep)))
	return nil
}

// resolveConflicts checks that the files Conflicts() reports are exactly
// the ones the generator wrote on both sides, then resolves each once (as
// the owner would) with a fresh version and records it in the model.
func (b *bed) resolveConflicts(planted map[string]bool, fileIDs map[string]string) (int, error) {
	byPath := map[string]ficus.Conflict{}
	for _, cf := range b.c.Conflicts() {
		p, ok := fileIDs[cf.FileID]
		if !ok {
			return 0, fmt.Errorf("conflict reported on %s, which is not a populated file", cf.FileID)
		}
		if _, seen := byPath[p]; !seen {
			byPath[p] = cf
		}
	}
	for p := range planted {
		if _, ok := byPath[p]; !ok {
			return len(byPath), fmt.Errorf("planted conflict on %s was not reported", p)
		}
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		if !planted[p] {
			return len(byPath), fmt.Errorf("conflict reported on %s, which only one side wrote", p)
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var buf []byte
	for _, p := range paths {
		f := b.ex.m.files[p]
		for i := range f.vers {
			f.vers[i] = 0xffffff // the owner's merged version
		}
		buf = b.ex.m.content(f, buf)
		if err := b.c.Resolve(byPath[p], buf); err != nil {
			return len(paths), fmt.Errorf("resolve %s: %w", p, err)
		}
	}
	return len(paths), nil
}
